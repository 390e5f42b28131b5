package e2e

import (
	"net/http"
	"path/filepath"
	"testing"

	"mpctree/internal/hst"
)

// TestServeSmoke serves a saved tree and calls every endpoint (a batch
// dist and knn by point and by points included), hot-reloads the tree
// under the server and queries again, checks that hardened inputs
// answer 400, and validates the serving metrics. Then it drills the
// server: 20,000 requests of the mixed query stream from 8 clients, each
// also hot-reloading the tree every 100th request, with every dist and
// knn answer equal bit for bit to the saved tree's own.
func TestServeSmoke(t *testing.T) {
	dir := scratch(t)
	run(t, dir, "treembed", "-gen", "clusters", "-n", "512", "-d", "16", "-trees", "0",
		"-seed", "3", "-save", "demo.tree")
	srv := start(t, dir, "treeserve", "-tree", "demo=demo.tree", "-addr", "127.0.0.1:0")
	base := srv.served(t, "serving")

	get(t, base+"/v1/trees")
	post(t, base+"/v1/dist", `{"tree":"demo","pairs":[[0,1],[2,3],[10,400],[511,0],[7,7]]}`)
	post(t, base+"/v1/knn", `{"tree":"demo","point":4,"k":3}`)
	post(t, base+"/v1/knn", `{"tree":"demo","points":[0,1,2],"k":2}`)
	post(t, base+"/v1/cut", `{"tree":"demo","scale":100}`)
	post(t, base+"/v1/emd", `{"tree":"demo","mu":"0:1,5:0.5","nu":"9:1.5"}`)
	post(t, base+"/v1/medoid", `{"tree":"demo"}`)
	post(t, base+"/v1/trees/reload", `{"tree":"demo"}`)
	post(t, base+"/v1/dist", `{"tree":"demo","pairs":[[0,1]]}`)
	for _, bad := range [][2]string{
		{"/v1/emd", `{"tree":"demo","mu":"0:NaN","nu":"1:1"}`},
		{"/v1/cut", `{"tree":"demo","scale":-5}`},
	} {
		if code := status(t, http.MethodPost, base+bad[0], bad[1]); code != http.StatusBadRequest {
			t.Fatalf("POST %s %s answered %d, want 400", bad[0], bad[1], code)
		}
	}

	checkMetrics(t, base, "serve_requests_total", "serve_request_seconds", "serve_inflight_requests",
		"serve_trees_loaded", "serve_tree_points", "serve_tree_reloads_total")

	tree := readTree(t, filepath.Join(dir, "demo.tree"))
	d := &drill{base: base, tree: "demo", trees: map[string][]*hst.Tree{"demo": {tree}}, clients: 8, reloadEvery: 100}
	d.run(mixed(tree.NumPoints(), 20000))
	if d.failed.Load() > 0 || d.answered.Load() < 10000 || d.reloads.Load() == 0 {
		t.Fatalf("drill: %v; want no failure, at least 10,000 items answered and a reload", d)
	}
	t.Logf("drill: %v", d)
	srv.stop(t)
}
