package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
	"mpctree/internal/rng"
	"mpctree/internal/serve"
	"mpctree/internal/treestore"
	"mpctree/internal/workload"
)

// buildTrees embeds k independently-seeded trees over one point set.
func buildTrees(t testing.TB, k int, seed uint64, n int) []*hst.Tree {
	t.Helper()
	pts := workload.UniformLattice(seed, n, 4, 1<<10)
	out := make([]*hst.Tree, k)
	for i := range out {
		tree, _, err := core.Embed(pts, core.Options{Seed: seed + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tree
	}
	return out
}

// fleet stands up a store with the given trees (named t-0, t-1, …) and
// n replicas serving all of them, returning the backend URLs and the
// httptest servers (index-aligned) so tests can kill replicas.
func fleet(t testing.TB, trees []*hst.Tree, n int) ([]string, []*httptest.Server) {
	t.Helper()
	st, err := treestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, tree := range trees {
		name := fmt.Sprintf("t-%d", i)
		if _, err := st.Save(name, tree); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return storeFleet(t, st, names, n)
}

// storeFleet starts n replicas, each loading the named trees from st.
func storeFleet(t testing.TB, st *treestore.Store, names []string, n int) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		reg := serve.NewRegistry(nil)
		for _, name := range names {
			if err := reg.LoadWith(name, serve.StoreLoader(st, name)); err != nil {
				t.Fatal(err)
			}
		}
		mux := http.NewServeMux()
		serve.NewServer(reg, serve.Options{}).RegisterMux(mux)
		servers[i] = httptest.NewServer(mux)
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	return urls, servers
}

// newGate builds a started gateway over the URLs with a fake-clock
// retry policy (no real sleeps in tests).
func newGate(t testing.TB, urls []string, reg *obs.Registry, mutate func(*Options)) (*Gateway, *httptest.Server) {
	t.Helper()
	opts := Options{
		Backends:        urls,
		HealthInterval:  50 * time.Millisecond,
		CacheCheckEvery: 2,
		Retry:           mpcnet.RetryPolicy{Sleep: func(time.Duration) {}},
		Obs:             reg,
	}
	if mutate != nil {
		mutate(&opts)
	}
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	mux := http.NewServeMux()
	g.RegisterMux(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return g, srv
}

func postJSON(t *testing.T, url string, req any, resp any) (int, http.Header) {
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
	if resp != nil && httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return httpResp.StatusCode, httpResp.Header
}

// TestRingDeterministicAndComplete: placement is a pure function of the
// configuration, every preference list is a permutation of the
// backends, keys spread across more than one owner, and for any three
// loopback backends each owns a fair share of /v1/dist keys.
func TestRingDeterministicAndComplete(t *testing.T) {
	backends := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := NewRing(backends)
	r2 := NewRing([]string{"http://c:3", "http://a:1", "http://b:2"}) // order must not matter
	owners := make(map[string]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		p1 := r1.Prefer(key)
		p2 := r2.Prefer(key)
		if len(p1) != len(backends) {
			t.Fatalf("Prefer returned %d backends, want %d", len(p1), len(backends))
		}
		seen := map[string]bool{}
		for _, b := range p1 {
			seen[b] = true
		}
		if len(seen) != len(backends) {
			t.Fatalf("preference list %v is not a permutation", p1)
		}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("placement depends on configuration order: %v vs %v", p1, p2)
			}
		}
		owners[p1[0]]++
	}
	if len(owners) < 2 {
		t.Fatalf("all 200 keys landed on one backend: %v", owners)
	}

	// Share floor: three replicas on random loopback ports, as the tests
	// start them, each own at least 15% of 2,000 dist-body keys (a fair
	// share is 33%).
	r := rng.New(7)
	const keys = 2000
	for draw := 0; draw < 100; draw++ {
		var urls []string
		for len(urls) < 3 {
			u := fmt.Sprintf("http://127.0.0.1:%d", 1024+r.Intn(65535-1024))
			if !slices.Contains(urls, u) {
				urls = append(urls, u)
			}
		}
		ring := NewRing(urls)
		share := map[string]int{}
		for i := 0; i < keys; i++ {
			body := fmt.Sprintf(`{"tree":"t-0","pairs":[[%d,%d]]}`, i%64, (i*7+i/64)%64)
			share[ring.Prefer(routeKey("/v1/dist", "t-0", []byte(body)))[0]]++
		}
		for _, u := range urls {
			if share[u] < keys*15/100 {
				t.Fatalf("backends %v: %s owns %d of %d keys, want at least 15%%", urls, u, share[u], keys)
			}
		}
	}
}

// TestCacheLRU pins deterministic LRU behavior: recency updates on Get,
// eviction strictly from the cold end, Drop removes.
func TestCacheLRU(t *testing.T) {
	c := NewCache(2, nil)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // a becomes most recent
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b (LRU), not a
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatal("a lost")
	}
	c.Drop("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived Drop")
	}
	disabled := NewCache(0, nil)
	disabled.Put("x", []byte("X"))
	if _, ok := disabled.Get("x"); ok {
		t.Fatal("disabled cache served a hit")
	}
}

// TestGateDistKNNAndCache: plain queries through the gate are
// bit-identical to serial answers; a repeated query is served from the
// cache (marked by X-Gate-Cache) with identical bytes.
func TestGateDistKNNAndCache(t *testing.T) {
	trees := buildTrees(t, 1, 1, 64)
	urls, _ := fleet(t, trees, 2)
	reg := obs.New()
	_, gw := newGate(t, urls, reg, nil)

	req := serve.DistRequest{Tree: "t-0", Pairs: [][2]int{{0, 1}, {5, 9}, {3, 3}}}
	var first serve.DistResponse
	status, _ := postJSON(t, gw.URL+"/v1/dist", req, &first)
	if status != http.StatusOK {
		t.Fatalf("dist: HTTP %d", status)
	}
	for i, p := range req.Pairs {
		if want := trees[0].Dist(p[0], p[1]); first.Dists[i] != want {
			t.Fatalf("dist[%d] = %v, want %v", i, first.Dists[i], want)
		}
	}
	if first.Generation == 0 {
		t.Fatal("dist response missing generation")
	}
	var second serve.DistResponse
	_, hdr := postJSON(t, gw.URL+"/v1/dist", req, &second)
	if hdr.Get("X-Gate-Cache") != "hit" {
		t.Fatal("second identical dist was not a cache hit")
	}
	if len(second.Dists) != len(first.Dists) {
		t.Fatal("cached answer shape differs")
	}
	for i := range first.Dists {
		if first.Dists[i] != second.Dists[i] {
			t.Fatal("cached answer not bit-identical")
		}
	}

	var knn serve.KNNResponse
	status, _ = postJSON(t, gw.URL+"/v1/knn", serve.KNNRequest{Tree: "t-0", Points: []int{4}, K: 3}, &knn)
	if status != http.StatusOK {
		t.Fatalf("knn: HTTP %d", status)
	}
	want := trees[0].KNN(4, 3)
	if len(knn.Neighbors[0]) != len(want) {
		t.Fatalf("knn answered %d neighbors, want %d", len(knn.Neighbors[0]), len(want))
	}
	for i := range want {
		if knn.Neighbors[0][i] != want[i] {
			t.Fatalf("knn[%d] = %+v, want %+v", i, knn.Neighbors[0][i], want[i])
		}
	}

	// Cache metrics moved.
	var hits float64
	for _, v := range reg.Snapshot() {
		if v.Name == "gate_cache_hits_total" {
			hits += v.Value
		}
	}
	if hits < 1 {
		t.Fatalf("gate_cache_hits_total = %v, want >= 1", hits)
	}
}

// TestGateEnsembleMin: an ensemble dist answers the elementwise min
// over the member trees, bit-identical to the serial fold.
func TestGateEnsembleMin(t *testing.T) {
	trees := buildTrees(t, 3, 1, 64)
	urls, _ := fleet(t, trees, 2)
	_, gw := newGate(t, urls, nil, func(o *Options) {
		o.Ensembles = map[string][]string{"ens": {"t-0", "t-1", "t-2"}}
	})

	pairs := [][2]int{{0, 1}, {2, 3}, {10, 40}, {7, 7}}
	var resp serve.DistResponse
	status, _ := postJSON(t, gw.URL+"/v1/dist", serve.DistRequest{Tree: "ens", Pairs: pairs}, &resp)
	if status != http.StatusOK {
		t.Fatalf("ensemble dist: HTTP %d", status)
	}
	for i, p := range pairs {
		want := trees[0].Dist(p[0], p[1])
		for _, tree := range trees[1:] {
			if d := tree.Dist(p[0], p[1]); d < want {
				want = d
			}
		}
		if resp.Dists[i] != want {
			t.Fatalf("ensemble dist[%d] = %v, want min %v", i, resp.Dists[i], want)
		}
	}
	// The gate decodes an ensemble body whole, whatever its field order.
	status, raw := postRaw(t, gw.URL+"/v1/dist", `{"pairs":[[0,1],[2,3],[10,40],[7,7]],"tree":"ens"}`)
	var rawResp serve.DistResponse
	if status != http.StatusOK || json.Unmarshal(raw, &rawResp) != nil || rawResp.Tree != "ens" || !slices.Equal(rawResp.Dists, resp.Dists) {
		t.Fatalf("raw ensemble body: %d %s, want the dists %v", status, raw, resp.Dists)
	}

	// knn against an ensemble name is a client error, not a fan-out.
	status, _ = postJSON(t, gw.URL+"/v1/knn", serve.KNNRequest{Tree: "ens", Points: []int{0}, K: 1}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("ensemble knn: HTTP %d, want 400", status)
	}
}

// postRaw posts body to url and returns the status and response bytes.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestGateDistPlainBodyForwardedAsIs: the gate reads only a dist body's
// tree, so a plain-tree body whose pairs are malformed reaches the
// replica, and the client gets the replica's 400 body byte for byte.
// (A truncated body tells the two apart: the gate's whole-body decode
// said "unexpected end of JSON input", the replica says "unexpected
// EOF".)
func TestGateDistPlainBodyForwardedAsIs(t *testing.T) {
	urls, _ := fleet(t, buildTrees(t, 1, 1, 32), 1)
	_, gw := newGate(t, urls, nil, func(o *Options) {
		o.Ensembles = map[string][]string{"ens": {"t-0"}}
	})
	for _, body := range []string{
		`{"tree":"t-0","pairs":[[0,1],[2`,
		`{"tree":"t-0","pairs":[[0,"x"]]}`,
		`{"tree":"t-0","pairs":7}`,
		`{"tree":"t-0","pairs":[[0,1]],"extra":true}`,
	} {
		status, got := postRaw(t, gw.URL+"/v1/dist", body)
		wantStatus, want := postRaw(t, urls[0]+"/v1/dist", body)
		if wantStatus != http.StatusBadRequest {
			t.Fatalf("%s: replica answered %d %s, want 400", body, wantStatus, want)
		}
		if status != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("%s: gate answered %d %q, replica %d %q", body, status, got, wantStatus, want)
		}
	}
	// An ensemble body is still decoded by the gate, which rejects it.
	if status, got := postRaw(t, gw.URL+"/v1/dist", `{"tree":"ens","pairs":[[0,"x"]]}`); status != http.StatusBadRequest ||
		!strings.Contains(string(got), "bad request body") {
		t.Fatalf("malformed ensemble body: %d %s, want the gate's 400", status, got)
	}
}

// TestGateFailover: killing a replica mid-run must not surface a single
// client error — the ring's failover order absorbs it.
func TestGateFailover(t *testing.T) {
	trees := buildTrees(t, 1, 1, 64)
	urls, servers := fleet(t, trees, 3)
	reg := obs.New()
	_, gw := newGate(t, urls, reg, nil)

	kill := 1
	servers[kill].Close()
	for i := 0; i < 50; i++ {
		req := serve.DistRequest{Tree: "t-0", Pairs: [][2]int{{i % 64, (i * 7) % 64}}}
		var resp serve.DistResponse
		status, _ := postJSON(t, gw.URL+"/v1/dist", req, &resp)
		if status != http.StatusOK {
			t.Fatalf("query %d after replica kill: HTTP %d", i, status)
		}
		if want := trees[0].Dist(i%64, (i*7)%64); resp.Dists[0] != want {
			t.Fatalf("query %d: %v, want %v", i, resp.Dists[0], want)
		}
	}
	// The dead replica is now marked unhealthy.
	var healthyVals []float64
	for _, v := range reg.Snapshot() {
		if v.Name == "gate_replica_healthy" && v.Labels["backend"] == urls[kill] {
			healthyVals = append(healthyVals, v.Value)
		}
	}
	if len(healthyVals) != 1 || healthyVals[0] != 0 {
		t.Fatalf("gate_replica_healthy{backend=%s} = %v, want [0]", urls[kill], healthyVals)
	}
}

// TestForwardsReuseReplicaConnections drives 8 clients × 200 dist
// requests through the gate, answer cache off so every one is
// forwarded, to one replica, and counts the connections the replica
// accepts. The gate keeps a pooled connection per concurrent forward;
// with http.DefaultTransport's 2 idle connections per host it dialed
// hundreds.
func TestForwardsReuseReplicaConnections(t *testing.T) {
	const clients, perClient = 8, 200
	trees := buildTrees(t, 1, 1, 64)
	st, err := treestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("t-0", trees[0]); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(nil)
	if err := reg.LoadWith("t-0", serve.StoreLoader(st, "t-0")); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	serve.NewServer(reg, serve.Options{}).RegisterMux(mux)
	replica := httptest.NewUnstartedServer(mux)
	var accepted atomic.Int64
	replica.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			accepted.Add(1)
		}
	}
	replica.Start()
	t.Cleanup(replica.Close)
	_, gw := newGate(t, []string{replica.URL}, nil, func(o *Options) { o.CacheSize = -1 })

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < perClient; i++ {
				a, b := (c*perClient+i)%64, (c+7*i)%64
				body := fmt.Sprintf(`{"tree":"t-0","pairs":[[%d,%d]]}`, a, b)
				resp, err := client.Post(gw.URL+"/v1/dist", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var out serve.DistResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || out.Dists[0] != trees[0].Dist(a, b) {
					errs <- fmt.Errorf("dist(%d,%d): HTTP %d, %+v, %v", a, b, resp.StatusCode, out, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	n := accepted.Load()
	t.Logf("replica accepted %d connections", n)
	if n > 16 {
		t.Fatalf("replica accepted %d connections for %d forwards from %d clients, want at most 16", n, clients*perClient, clients)
	}
}

// TestGateTreesAndReload: the merged listing reports store versions,
// and a reload broadcast bumps generations on every healthy replica.
func TestGateTreesAndReload(t *testing.T) {
	trees := buildTrees(t, 1, 1, 64)
	urls, _ := fleet(t, trees, 2)
	_, gw := newGate(t, urls, nil, nil)

	resp, err := http.Get(gw.URL + "/v1/trees")
	if err != nil {
		t.Fatal(err)
	}
	var listing serve.TreesResponse
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Trees) != 1 || listing.Trees[0].Name != "t-0" || listing.Trees[0].Version != 1 {
		t.Fatalf("merged listing = %+v", listing.Trees)
	}
	if listing.Trees[0].SHA256 == "" {
		t.Fatal("merged listing missing manifest sha256")
	}

	status, _ := postJSON(t, gw.URL+"/v1/trees/reload", serve.ReloadRequest{Tree: "t-0"}, nil)
	if status != http.StatusOK {
		t.Fatalf("broadcast reload: HTTP %d", status)
	}
	// Every backend must now serve generation 2.
	for _, u := range urls {
		r, err := http.Get(u + "/v1/trees")
		if err != nil {
			t.Fatal(err)
		}
		var l serve.TreesResponse
		if err := json.NewDecoder(r.Body).Decode(&l); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if l.Trees[0].Generation != 2 {
			t.Fatalf("backend %s at generation %d after broadcast reload, want 2", u, l.Trees[0].Generation)
		}
	}
}

// TestGateCacheFreshAfterReload: a reload landing between health polls
// must not leave cache lookups keyed at the stale polled generation.
// The health interval is set to an hour so only the priming poll ever
// runs — every generation the gate learns after that comes from reload
// responses and live answers, which is exactly what this test pins.
func TestGateCacheFreshAfterReload(t *testing.T) {
	trees := buildTrees(t, 1, 11, 64)
	urls, _ := fleet(t, trees, 1)
	reg := obs.New()
	_, gw := newGate(t, urls, reg, func(o *Options) {
		o.HealthInterval = time.Hour
		o.CacheCheckEvery = 1 // double-check every hit
	})

	req := serve.DistRequest{Tree: "t-0", Pairs: [][2]int{{0, 1}}}
	var resp serve.DistResponse
	status, _ := postJSON(t, gw.URL+"/v1/dist", req, &resp)
	if status != http.StatusOK || resp.Generation != 1 {
		t.Fatalf("warmup: HTTP %d generation %d, want 200 at generation 1", status, resp.Generation)
	}
	status, hdr := postJSON(t, gw.URL+"/v1/dist", req, &resp)
	if status != http.StatusOK || hdr.Get("X-Gate-Cache") != "hit" {
		t.Fatalf("warm repeat: HTTP %d cache %q, want a hit", status, hdr.Get("X-Gate-Cache"))
	}

	// Reload through the gate: the broadcast response carries the
	// post-reload TreeInfo, so the very next lookup must already key at
	// generation 2 — a miss that refills, never a stale hit.
	if status, _ := postJSON(t, gw.URL+"/v1/trees/reload", serve.ReloadRequest{Tree: "t-0"}, nil); status != http.StatusOK {
		t.Fatalf("broadcast reload: HTTP %d", status)
	}
	status, hdr = postJSON(t, gw.URL+"/v1/dist", req, &resp)
	if status != http.StatusOK {
		t.Fatalf("post-reload: HTTP %d", status)
	}
	if hdr.Get("X-Gate-Cache") == "hit" {
		t.Fatal("post-reload query hit the pre-reload cache entry")
	}
	if resp.Generation != 2 {
		t.Fatalf("post-reload generation = %d, want 2", resp.Generation)
	}
	status, hdr = postJSON(t, gw.URL+"/v1/dist", req, &resp)
	if status != http.StatusOK || hdr.Get("X-Gate-Cache") != "hit" || resp.Generation != 2 {
		t.Fatalf("refilled repeat: HTTP %d cache %q generation %d, want a hit at generation 2", status, hdr.Get("X-Gate-Cache"), resp.Generation)
	}

	// Reload behind the gate's back: the next repeat may serve one last
	// pre-reload hit, but its double-check observes generation 3, so the
	// query after that must answer fresh.
	if status, _ := postJSON(t, urls[0]+"/v1/trees/reload", serve.ReloadRequest{Tree: "t-0"}, nil); status != http.StatusOK {
		t.Fatalf("direct replica reload: HTTP %d", status)
	}
	postJSON(t, gw.URL+"/v1/dist", req, &resp)
	status, _ = postJSON(t, gw.URL+"/v1/dist", req, &resp)
	if status != http.StatusOK || resp.Generation != 3 {
		t.Fatalf("after behind-the-back reload: HTTP %d generation %d, want 200 at generation 3", status, resp.Generation)
	}

	// Same tree bytes at every generation, so the double-checks that did
	// run must never have counted a mismatch.
	for _, v := range reg.Snapshot() {
		if v.Name == "gate_cache_mismatch_total" && v.Value != 0 {
			t.Fatalf("gate_cache_mismatch_total = %v, want 0", v.Value)
		}
	}
}

// TestGateWrongMethod: every gate endpoint answers the other method
// with 405 and the JSON error body before its handler runs — no
// forward, broadcast or quality fetch reaches a replica — and counts it
// on gate_errors_total{class="4xx"}. The table must cover every
// endpoint RegisterMux mounts.
func TestGateWrongMethod(t *testing.T) {
	trees := buildTrees(t, 1, 1, 64)
	urls, _ := fleet(t, trees, 1)
	var forwarded atomic.Int64 // replica requests other than health polls
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/trees" {
			forwarded.Add(1)
		}
		proxy, err := http.NewRequest(r.Method, urls[0]+r.URL.RequestURI(), r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(proxy)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(counting.Close)
	reg := obs.New()
	_, gw := newGate(t, []string{counting.URL}, reg, func(o *Options) {
		o.Ensembles = map[string][]string{"ens": {"t-0"}}
	})

	cases := []struct{ endpoint, path, method string }{
		{"dist", "/v1/dist", http.MethodPost},
		{"knn", "/v1/knn", http.MethodPost},
		{"cut", "/v1/cut", http.MethodPost},
		{"emd", "/v1/emd", http.MethodPost},
		{"medoid", "/v1/medoid", http.MethodPost},
		{"trees", "/v1/trees", http.MethodGet},
		{"reload", "/v1/trees/reload", http.MethodPost},
		{"ensembles", "/v1/ensembles", http.MethodGet},
		{"quality", "/v1/quality", http.MethodGet},
		{"status", "/v1/status", http.MethodGet},
	}
	registered := map[string]bool{}
	for _, v := range reg.Snapshot() {
		if v.Name == "gate_requests_total" {
			registered[v.Labels["endpoint"]] = true
		}
	}
	if len(registered) != len(cases) {
		t.Fatalf("gate registers endpoints %v; the table has %d", registered, len(cases))
	}
	for _, c := range cases {
		if !registered[c.endpoint] {
			t.Fatalf("table endpoint %q is not registered", c.endpoint)
		}
		wrong := http.MethodGet
		if c.method == http.MethodGet {
			wrong = http.MethodPost
		}
		req, err := http.NewRequest(wrong, gw.URL+c.path, strings.NewReader(`{"tree":"t-0","pairs":[[0,1]],"point":0,"k":1,"scale":1,"mu":"0:1","nu":"1:1"}`))
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
		if got := reg.Counter("gate_errors_total", "", "endpoint", c.endpoint, "class", "4xx").Value(); got != 1 {
			t.Errorf("%s: gate_errors_total{class=4xx} = %d, want 1", c.endpoint, got)
		}
	}
	if n := forwarded.Load(); n != 0 {
		t.Fatalf("%d wrong-method requests reached the replica", n)
	}
}
