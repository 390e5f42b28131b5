package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/obs"
	"mpctree/internal/workload"
)

// buildTree embeds a seeded synthetic point set — the same artifact
// `treembed -save` produces.
func buildTree(t testing.TB, seed uint64, n int) *hst.Tree {
	t.Helper()
	pts := workload.UniformLattice(seed, n, 4, 1<<10)
	tree, _, err := core.Embed(pts, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// saveTree writes a tree the way treembed -save does.
func saveTree(t testing.TB, tree *hst.Tree, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// newTestServer stands up a registry with one tree named "t" plus the
// full API on an httptest server. Returns the server, the tree, and the
// file path (for reload tests to overwrite).
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Registry, *hst.Tree, string) {
	t.Helper()
	tree := buildTree(t, 1, 96)
	path := filepath.Join(t.TempDir(), "t.tree")
	saveTree(t, tree, path)
	reg := NewRegistry(opts.Obs)
	if err := reg.Load("t", path); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewServer(reg, opts).RegisterMux(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, reg, tree, path
}

// postJSON round-trips a request, failing on transport errors; the
// status and decoded body come back for assertion.
func postJSON(t *testing.T, url string, req any, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if resp != nil && httpResp.StatusCode/100 == 2 {
		if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return httpResp.StatusCode
}

func TestDistBatchMatchesSerial(t *testing.T) {
	// The same 10k-pair batch must come back bit-identical to serial
	// hst.Tree.Dist at every GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		srv, _, tree, _ := newTestServer(t, Options{})
		pairs := workload.DistPairs(7, tree.NumPoints(), 10000)
		var resp DistResponse
		if code := postJSON(t, srv.URL+"/v1/dist", DistRequest{Tree: "t", Pairs: pairs}, &resp); code != 200 {
			t.Fatalf("GOMAXPROCS=%d: HTTP %d", procs, code)
		}
		if len(resp.Dists) != len(pairs) {
			t.Fatalf("GOMAXPROCS=%d: %d answers for %d pairs", procs, len(resp.Dists), len(pairs))
		}
		for i, p := range pairs {
			if want := tree.Dist(p[0], p[1]); resp.Dists[i] != want {
				t.Fatalf("GOMAXPROCS=%d pair %d: %v != serial %v", procs, i, resp.Dists[i], want)
			}
		}
	}
}

func TestKNNEndpoint(t *testing.T) {
	srv, _, tree, _ := newTestServer(t, Options{})
	p := 3
	var resp KNNResponse
	if code := postJSON(t, srv.URL+"/v1/knn", KNNRequest{Tree: "t", Point: &p, K: 4}, &resp); code != 200 {
		t.Fatalf("HTTP %d", code)
	}
	want := tree.KNN(3, 4)
	if len(resp.Neighbors) != 1 || len(resp.Neighbors[0]) != len(want) {
		t.Fatalf("shape: %+v", resp)
	}
	for i := range want {
		if resp.Neighbors[0][i] != want[i] {
			t.Fatalf("neighbor %d = %+v, want %+v", i, resp.Neighbors[0][i], want[i])
		}
	}
	// Batch form.
	var batch KNNResponse
	if code := postJSON(t, srv.URL+"/v1/knn", KNNRequest{Tree: "t", Points: []int{0, 1, 2}, K: 2}, &batch); code != 200 {
		t.Fatalf("batch HTTP %d", code)
	}
	if len(batch.Neighbors) != 3 {
		t.Fatalf("batch shape: %+v", batch)
	}
}

func TestCutEMDMedoidEndpoints(t *testing.T) {
	srv, _, tree, _ := newTestServer(t, Options{})
	var cut CutResponse
	if code := postJSON(t, srv.URL+"/v1/cut", CutRequest{Tree: "t", Scale: 500}, &cut); code != 200 {
		t.Fatalf("cut HTTP %d", code)
	}
	if cut.Clusters < 1 || len(cut.Labels) != tree.NumPoints() || len(cut.Sizes) != cut.Clusters {
		t.Fatalf("cut shape: clusters=%d labels=%d sizes=%d", cut.Clusters, len(cut.Labels), len(cut.Sizes))
	}
	var emd EMDResponse
	if code := postJSON(t, srv.URL+"/v1/emd", EMDRequest{Tree: "t", Mu: "0:1,5:0.5", Nu: "9:1.5"}, &emd); code != 200 {
		t.Fatalf("emd HTTP %d", code)
	}
	mu, _ := ParseMeasure("0:1,5:0.5", tree.NumPoints())
	nu, _ := ParseMeasure("9:1.5", tree.NumPoints())
	if want := tree.EMD(mu, nu); emd.EMD != want {
		t.Fatalf("emd = %v, want %v", emd.EMD, want)
	}
	var med MedoidResponse
	if code := postJSON(t, srv.URL+"/v1/medoid", MedoidRequest{Tree: "t"}, &med); code != 200 {
		t.Fatalf("medoid HTTP %d", code)
	}
	if wantP, wantD := tree.MedoidLeaf(); med.Point != wantP || med.TotalDist != wantD {
		t.Fatalf("medoid = %+v, want (%d, %v)", med, wantP, wantD)
	}
}

func TestValidationErrors(t *testing.T) {
	srv, _, tree, _ := newTestServer(t, Options{MaxBatch: 100})
	n := tree.NumPoints()
	cases := []struct {
		name string
		url  string
		req  any
		want int
	}{
		{"unknown tree", "/v1/dist", DistRequest{Tree: "nope", Pairs: [][2]int{{0, 1}}}, 404},
		{"missing tree", "/v1/dist", DistRequest{Pairs: [][2]int{{0, 1}}}, 400},
		{"empty pairs", "/v1/dist", DistRequest{Tree: "t"}, 400},
		{"pair out of range", "/v1/dist", DistRequest{Tree: "t", Pairs: [][2]int{{0, n}}}, 400},
		{"negative pair", "/v1/dist", DistRequest{Tree: "t", Pairs: [][2]int{{-1, 0}}}, 400},
		{"batch too large", "/v1/dist", DistRequest{Tree: "t", Pairs: make([][2]int, 101)}, 400},
		{"knn k zero", "/v1/knn", KNNRequest{Tree: "t", Points: []int{0}, K: 0}, 400},
		{"knn no points", "/v1/knn", KNNRequest{Tree: "t", K: 3}, 400},
		{"knn point range", "/v1/knn", KNNRequest{Tree: "t", Points: []int{n}, K: 3}, 400},
		{"cut zero scale", "/v1/cut", CutRequest{Tree: "t", Scale: 0}, 400},
		{"cut negative scale", "/v1/cut", CutRequest{Tree: "t", Scale: -4}, 400},
		{"emd NaN mass", "/v1/emd", EMDRequest{Tree: "t", Mu: "0:NaN", Nu: "1:1"}, 400},
		{"emd Inf mass", "/v1/emd", EMDRequest{Tree: "t", Mu: "0:1", Nu: "1:Inf"}, 400},
		{"emd empty measure", "/v1/emd", EMDRequest{Tree: "t", Mu: "", Nu: "1:1"}, 400},
		{"reload unknown", "/v1/trees/reload", ReloadRequest{Tree: "nope"}, 400},
	}
	for _, c := range cases {
		if code := postJSON(t, srv.URL+c.url, c.req, nil); code != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.name, code, c.want)
		}
	}
	// NaN scale can't travel through JSON as a number; a raw body checks
	// the decoder rejects it rather than silently zeroing.
	resp, err := http.Post(srv.URL+"/v1/cut", "application/json", strings.NewReader(`{"tree":"t","scale":NaN}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("NaN scale: HTTP %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(srv.URL + "/v1/dist")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/dist: HTTP %d, want 405", getResp.StatusCode)
	}
}

// TestWrongMethod: every replica endpoint answers the other method with
// 405 and the JSON error body before its handler runs, and counts it on
// serve_errors_total{class="4xx"}. The table must cover every endpoint
// RegisterMux mounts.
func TestWrongMethod(t *testing.T) {
	reg := obs.New()
	srv, trees, _, _ := newTestServer(t, Options{Obs: reg})
	cases := []struct{ endpoint, path, method string }{
		{"dist", "/v1/dist", http.MethodPost},
		{"knn", "/v1/knn", http.MethodPost},
		{"cut", "/v1/cut", http.MethodPost},
		{"emd", "/v1/emd", http.MethodPost},
		{"medoid", "/v1/medoid", http.MethodPost},
		{"trees", "/v1/trees", http.MethodGet},
		{"reload", "/v1/trees/reload", http.MethodPost},
		{"quality", "/v1/quality", http.MethodGet},
	}
	registered := map[string]bool{}
	for _, v := range reg.Snapshot() {
		if v.Name == "serve_requests_total" {
			registered[v.Labels["endpoint"]] = true
		}
	}
	if len(registered) != len(cases) {
		t.Fatalf("server registers endpoints %v; the table has %d", registered, len(cases))
	}
	for _, c := range cases {
		if !registered[c.endpoint] {
			t.Fatalf("table endpoint %q is not registered", c.endpoint)
		}
		wrong := http.MethodGet
		if c.method == http.MethodGet {
			wrong = http.MethodPost
		}
		req, err := http.NewRequest(wrong, srv.URL+c.path, strings.NewReader(`{"tree":"t"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := fmt.Sprintf("{\"error\":\"%s requires %s\"}\n", c.path, c.method)
		if resp.StatusCode != http.StatusMethodNotAllowed || string(body) != want ||
			resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: HTTP %d %q, want 405 %q", wrong, c.path, resp.StatusCode, body, want)
		}
		if got := reg.Counter("serve_errors_total", "", "endpoint", c.endpoint, "class", "4xx").Value(); got != 1 {
			t.Errorf("%s: serve_errors_total{class=4xx} = %d, want 1", c.endpoint, got)
		}
	}
	// GET /v1/trees/reload reached no handler: the tree was not reloaded.
	if info := trees.List(); len(info) != 1 || info[0].Generation != 1 {
		t.Fatalf("tree listing after wrong-method requests = %+v, want generation 1", info)
	}
}

func TestBodySizeLimit(t *testing.T) {
	srv, _, _, _ := newTestServer(t, Options{MaxBodyBytes: 256})
	big := DistRequest{Tree: "t", Pairs: make([][2]int, 1000)}
	if code := postJSON(t, srv.URL+"/v1/dist", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", code)
	}
}

// A body is one JSON value and nothing but whitespace after it: a second
// value, a stray } or ] or any other byte after the value answers 400.
func TestTrailingBytesRejected(t *testing.T) {
	srv, _, _, _ := newTestServer(t, Options{})
	const dist = `{"tree":"t","pairs":[[0,1]]}`
	for body, want := range map[string]int{
		dist + " \n\t": http.StatusOK,
		dist + dist:    http.StatusBadRequest,
		dist + "}":     http.StatusBadRequest,
		dist + "]":     http.StatusBadRequest,
		dist + " 1":    http.StatusBadRequest,
	} {
		resp, err := http.Post(srv.URL+"/v1/dist", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body %q: HTTP %d, want %d", body, resp.StatusCode, want)
		}
	}
}

func TestDeadline(t *testing.T) {
	srv, _, _, _ := newTestServer(t, Options{Deadline: time.Nanosecond})
	if code := postJSON(t, srv.URL+"/v1/medoid", MedoidRequest{Tree: "t"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: HTTP %d, want 503", code)
	}
}

// TestPanicAnswers500: a handler that panics answers 500 with the panic's
// message, and the server goes on serving.
func TestPanicAnswers500(t *testing.T) {
	_, reg, _, _ := newTestServer(t, Options{})
	s := NewServer(reg, Options{})
	mux := http.NewServeMux()
	s.RegisterMux(mux)
	mux.HandleFunc("/boom", s.endpoint("boom", http.MethodPost, func(context.Context, *http.Request) (any, error) {
		panic("boom")
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/boom", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "internal: boom") {
		t.Fatalf("panicking handler: HTTP %d %s, want 500 naming the panic", resp.StatusCode, body)
	}
	if code := postJSON(t, srv.URL+"/v1/dist", DistRequest{Tree: "t", Pairs: [][2]int{{0, 1}}}, nil); code != http.StatusOK {
		t.Fatalf("dist after the panic: HTTP %d, want 200", code)
	}
}

// TestDeadlineReachesBatchFanOut pins the request context propagating
// into the parallel batch path: an already-expired deadline must abort
// the /v1/dist fan-out with 503 rather than computing a doomed batch.
func TestDeadlineReachesBatchFanOut(t *testing.T) {
	srv, _, tree, _ := newTestServer(t, Options{Deadline: time.Nanosecond})
	pairs := workload.DistPairs(3, tree.NumPoints(), 5000)
	if code := postJSON(t, srv.URL+"/v1/dist", DistRequest{Tree: "t", Pairs: pairs}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline on dist batch: HTTP %d, want 503", code)
	}
	if code := postJSON(t, srv.URL+"/v1/knn", KNNRequest{Tree: "t", Points: []int{0, 1, 2, 3}, K: 3}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline on knn batch: HTTP %d, want 503", code)
	}
}

func TestTreesListAndReload(t *testing.T) {
	srv, reg, tree, path := newTestServer(t, Options{})
	httpResp, err := http.Get(srv.URL + "/v1/trees")
	if err != nil {
		t.Fatal(err)
	}
	var list TreesResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if len(list.Trees) != 1 || list.Trees[0].Name != "t" || list.Trees[0].Points != tree.NumPoints() || list.Trees[0].Generation != 1 {
		t.Fatalf("list: %+v", list)
	}
	// Swap the file for a different tree and hot-reload.
	tree2 := buildTree(t, 99, 64)
	saveTree(t, tree2, path)
	var rel ReloadResponse
	if code := postJSON(t, srv.URL+"/v1/trees/reload", ReloadRequest{Tree: "t"}, &rel); code != 200 {
		t.Fatalf("reload HTTP %d", code)
	}
	if rel.Tree.Points != tree2.NumPoints() || rel.Tree.Generation != 2 {
		t.Fatalf("post-reload info: %+v", rel.Tree)
	}
	got, err := reg.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPoints() != tree2.NumPoints() {
		t.Fatalf("registry still serves the old tree")
	}
}

// A failed reload (corrupt file on disk) must keep the previous tree in
// service — hot reload can degrade to "no change", never to an outage.
func TestReloadFailureKeepsServing(t *testing.T) {
	srv, reg, tree, path := newTestServer(t, Options{})
	if err := os.WriteFile(path, []byte("corrupt garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv.URL+"/v1/trees/reload", ReloadRequest{Tree: "t"}, nil); code != 400 {
		t.Fatalf("corrupt reload: HTTP %d, want 400", code)
	}
	got, err := reg.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPoints() != tree.NumPoints() {
		t.Fatal("old tree gone after failed reload")
	}
	var resp DistResponse
	if code := postJSON(t, srv.URL+"/v1/dist", DistRequest{Tree: "t", Pairs: [][2]int{{0, 1}}}, &resp); code != 200 {
		t.Fatalf("query after failed reload: HTTP %d", code)
	}
}

// The tentpole guarantee: hot reloads under sustained concurrent load
// drop no in-flight request, and every response is internally
// consistent with exactly one tree snapshot (old or new), never a torn
// mix.
func TestHotReloadUnderLoad(t *testing.T) {
	srv, _, treeA, path := newTestServer(t, Options{})
	treeB := buildTree(t, 42, 96) // same point count, different metric
	pairs := workload.DistPairs(11, treeA.NumPoints(), 64)
	wantA := make([]float64, len(pairs))
	wantB := make([]float64, len(pairs))
	differs := false
	for i, p := range pairs {
		wantA[i] = treeA.Dist(p[0], p[1])
		wantB[i] = treeB.Dist(p[0], p[1])
		if wantA[i] != wantB[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("test trees answer identically; reload would be unobservable")
	}

	const clients = 6
	const perClient = 60
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var resp DistResponse
				body, _ := json.Marshal(DistRequest{Tree: "t", Pairs: pairs})
				httpResp, err := http.Post(srv.URL+"/v1/dist", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				code := httpResp.StatusCode
				err = json.NewDecoder(httpResp.Body).Decode(&resp)
				httpResp.Body.Close()
				if code != 200 || err != nil {
					errs <- fmt.Errorf("HTTP %d, decode err %v", code, err)
					return
				}
				matchA, matchB := true, true
				for j := range pairs {
					if resp.Dists[j] != wantA[j] {
						matchA = false
					}
					if resp.Dists[j] != wantB[j] {
						matchB = false
					}
				}
				if !matchA && !matchB {
					errs <- fmt.Errorf("torn response: matches neither tree snapshot")
					return
				}
			}
		}()
	}
	// Flip the served tree back and forth while the clients hammer.
	var reloadWg sync.WaitGroup
	reloadWg.Add(1)
	go func() {
		defer reloadWg.Done()
		cur := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			var tr *hst.Tree
			if cur%2 == 0 {
				tr = treeB
			} else {
				tr = treeA
			}
			cur++
			saveTree(t, tr, path)
			if code := postJSON(t, srv.URL+"/v1/trees/reload", ReloadRequest{Tree: "t"}, nil); code != 200 {
				errs <- fmt.Errorf("reload HTTP %d", code)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	reloadWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Metrics: traffic must surface as valid Prometheus series with
// per-endpoint counters and latency histograms.
func TestServeMetrics(t *testing.T) {
	reg := obs.New()
	srv, _, _, _ := newTestServer(t, Options{Obs: reg})
	for i := 0; i < 3; i++ {
		postJSON(t, srv.URL+"/v1/dist", DistRequest{Tree: "t", Pairs: [][2]int{{0, 1}}}, nil)
	}
	postJSON(t, srv.URL+"/v1/cut", CutRequest{Tree: "t", Scale: -1}, nil) // a 4xx
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if _, err := obs.ValidatePrometheus(text); err != nil {
		t.Fatalf("metrics do not validate: %v\n%s", err, text)
	}
	for _, want := range []string{
		`serve_requests_total{endpoint="dist"} 3`,
		`serve_errors_total{class="4xx",endpoint="cut"} 1`,
		`serve_request_seconds_bucket{le="+Inf",endpoint="dist"} 3`,
		`serve_trees_loaded 1`,
		`serve_tree_points{tree="t"}`,
		`serve_inflight_requests 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}
