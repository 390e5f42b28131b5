package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpctree/internal/hst"
	"mpctree/internal/obs"
	"mpctree/internal/serve"
	"mpctree/internal/treestore"
)

// tracedFleet is fleet() with per-replica tracers (sampling only
// propagated decisions, like production replicas behind a gate) and
// /trace/requests mounted, so tests can read each replica's span forest.
func tracedFleet(t *testing.T, trees []*hst.Tree, n int, sample float64) ([]string, []*obs.Tracer) {
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
	urls := make([]string, n)
	tracers := make([]*obs.Tracer, n)
	for i := 0; i < n; i++ {
		reg := serve.NewRegistry(nil)
		for _, name := range names {
			if err := reg.LoadWith(name, serve.StoreLoader(st, name)); err != nil {
				t.Fatal(err)
			}
		}
		tracers[i] = obs.NewTracer(sample, 4096)
		mux := http.NewServeMux()
		serve.NewServer(reg, serve.Options{Tracer: tracers[i]}).RegisterMux(mux)
		obs.RegisterRequestTraces(mux, tracers[i].Buffer())
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls, tracers
}

// tracedGate builds a started gate with a 100%-sampling tracer.
func tracedGate(t *testing.T, urls []string, mutate func(*Options)) (*Gateway, *httptest.Server, *obs.Tracer) {
	t.Helper()
	tracer := obs.NewTracer(1, 4096)
	g, srv := newGate(t, urls, nil, func(o *Options) {
		o.Tracer = tracer
		if mutate != nil {
			mutate(o)
		}
	})
	return g, srv, tracer
}

// forestIndex flattens a snapshot forest into name-indexed lookups.
func childrenNamed(root *obs.SpanSnapshot, name string) []*obs.SpanSnapshot {
	var out []*obs.SpanSnapshot
	for _, c := range root.Children {
		if len(c.Name) >= len(name) && c.Name[:len(name)] == name {
			out = append(out, c)
		}
	}
	return out
}

// TestGateTraceForest: every sampled request yields exactly one gate
// root whose forward attempt's span_id is the parent_span of exactly one
// replica root in the same trace — the one link per edge the merged
// timeline renders — with route/cache_lookup children and replica
// compute spans underneath.
func TestGateTraceForest(t *testing.T) {
	trees := buildTrees(t, 1, 11, 64)
	urls, tracers := tracedFleet(t, trees, 2, 0)
	g, gsrv, gtr := tracedGate(t, urls, nil)

	const reqs = 5
	for i := 0; i < reqs; i++ {
		var resp serve.DistResponse
		status, _ := postJSON(t, gsrv.URL+"/v1/dist",
			serve.DistRequest{Tree: "t-0", Pairs: [][2]int{{i, i + 10}}}, &resp)
		if status != http.StatusOK {
			t.Fatalf("dist %d: %d", i, status)
		}
	}

	roots := gtr.Buffer().Snapshots()
	if len(roots) != reqs {
		t.Fatalf("gate recorded %d roots, want %d", len(roots), reqs)
	}
	attemptTrace := map[string]string{} // forward span_id -> trace_id
	for _, root := range roots {
		if root.Name != "gate dist" || root.Running {
			t.Fatalf("root %q running=%v", root.Name, root.Running)
		}
		if root.SpanID == "" || root.ParentSpan != "" || root.Metrics["status"] != http.StatusOK {
			t.Fatalf("root identity %q/%q, metrics = %v", root.SpanID, root.ParentSpan, root.Metrics)
		}
		if len(childrenNamed(root, "route")) != 1 {
			t.Fatalf("root lacks route child: %+v", root.Children)
		}
		if len(childrenNamed(root, "cache_lookup")) != 1 {
			t.Fatalf("root lacks cache_lookup child: %+v", root.Children)
		}
		fwds := childrenNamed(root, "forward ")
		if len(fwds) != 1 {
			t.Fatalf("root has %d forward children, want 1", len(fwds))
		}
		f := fwds[0]
		if f.Metrics["failed"] != 0 || f.Metrics["status"] != http.StatusOK {
			t.Fatalf("healthy forward metrics = %v", f.Metrics)
		}
		if f.TraceID != root.TraceID || f.ParentSpan != root.SpanID || f.SpanID == "" {
			t.Fatalf("forward identity %q/%q/%q under root %q/%q", f.TraceID, f.SpanID, f.ParentSpan, root.TraceID, root.SpanID)
		}
		attemptTrace[f.SpanID] = f.TraceID
	}

	// Replicas sampled only because the gate said so (their own fraction
	// is 0): every replica root's parent is a distinct gate attempt span
	// of the same trace.
	replicaRoots := 0
	linked := map[string]bool{}
	for _, tr := range tracers {
		for _, root := range tr.Buffer().Snapshots() {
			replicaRoots++
			if root.Name != "serve dist" {
				t.Fatalf("replica root %q", root.Name)
			}
			trace, ok := attemptTrace[root.ParentSpan]
			if !ok {
				t.Fatalf("replica root parent %q is no gate attempt", root.ParentSpan)
			}
			if trace != root.TraceID {
				t.Fatalf("replica root trace %q, its gate attempt's %q", root.TraceID, trace)
			}
			if linked[root.ParentSpan] {
				t.Fatalf("gate attempt %q has two replica roots", root.ParentSpan)
			}
			linked[root.ParentSpan] = true
			if len(childrenNamed(root, "compute_dist")) != 1 {
				t.Fatalf("replica root lacks compute_dist: %+v", root.Children)
			}
		}
	}
	if replicaRoots != reqs {
		t.Fatalf("replicas recorded %d roots, want %d", replicaRoots, reqs)
	}

	// The merged export carries all three processes with their forests.
	procs := g.TraceProcesses(gtr.Buffer())
	if len(procs) != 3 || len(procs[0].Roots) != reqs {
		t.Fatalf("TraceProcesses: %d procs, gate roots %d", len(procs), len(procs[0].Roots))
	}
	if got := len(procs[1].Roots) + len(procs[2].Roots); got != reqs {
		t.Fatalf("merged replica roots = %d, want %d", got, reqs)
	}
}

// TestGateTraceRetryFailure: a backend that 500s the first attempt
// shows up in the forest as a failed forward span followed by a
// successful one under the same root, and the replica's root links to
// the successful attempt.
func TestGateTraceRetryFailure(t *testing.T) {
	trees := buildTrees(t, 1, 12, 64)
	urls, tracers := tracedFleet(t, trees, 1, 0)

	// Proxy in front of the lone replica: fail the first /v1/dist.
	var failedOnce atomic.Bool
	backendURL := urls[0]
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/dist" && !failedOnce.Swap(true) {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		req, err := http.NewRequest(r.Method, backendURL+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)

	_, gsrv, gtr := tracedGate(t, []string{proxy.URL}, nil)
	var resp serve.DistResponse
	status, _ := postJSON(t, gsrv.URL+"/v1/dist",
		serve.DistRequest{Tree: "t-0", Pairs: [][2]int{{1, 2}}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("dist after retry: %d", status)
	}

	roots := gtr.Buffer().Snapshots()
	if len(roots) != 1 {
		t.Fatalf("%d roots, want 1", len(roots))
	}
	fwds := childrenNamed(roots[0], "forward ")
	if len(fwds) != 2 {
		t.Fatalf("%d forward attempts, want 2 (failed + retried): %+v", len(fwds), roots[0].Children)
	}
	if fwds[0].Metrics["failed"] != 1 || fwds[0].Metrics["round"] != 0 {
		t.Fatalf("first attempt metrics = %v, want failed in round 0", fwds[0].Metrics)
	}
	if fwds[1].Metrics["failed"] != 0 || fwds[1].Metrics["status"] != http.StatusOK || fwds[1].Metrics["round"] != 1 {
		t.Fatalf("second attempt metrics = %v, want success in round 1", fwds[1].Metrics)
	}
	replica := tracers[0].Buffer().Snapshots()
	if len(replica) != 1 || replica[0].ParentSpan != fwds[1].SpanID || replica[0].TraceID != fwds[1].TraceID {
		t.Fatalf("replica roots %+v, want one linked to the retried attempt %q", replica, fwds[1].SpanID)
	}
}

// TestGateTraceConcurrentWellFormed: the forest stays well-formed under
// concurrent load (run with -race to check the synchronization): every
// root ended, exactly one root per request, and every replica root —
// ensemble members and cache double-checks included — links to a gate
// forward attempt of its own trace.
func TestGateTraceConcurrentWellFormed(t *testing.T) {
	trees := buildTrees(t, 2, 13, 64)
	urls, tracers := tracedFleet(t, trees, 2, 0)
	_, gsrv, gtr := tracedGate(t, urls, func(o *Options) {
		o.Ensembles = map[string][]string{"ens": {"t-0", "t-1"}}
	})

	const goroutines, perG = 8, 20
	var wg sync.WaitGroup
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tree := "t-0"
				if i%3 == 1 {
					tree = "t-1"
				}
				if i%5 == 0 {
					tree = "ens" // ensemble fan-out path
				}
				// i%4 repeats bodies so the cache-hit path runs too.
				req := serve.DistRequest{Tree: tree, Pairs: [][2]int{{i % 4, 10 + gid%2}}}
				var resp serve.DistResponse
				body, _ := json.Marshal(req)
				httpResp, err := http.Post(gsrv.URL+"/v1/dist", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				_ = json.NewDecoder(httpResp.Body).Decode(&resp)
				httpResp.Body.Close()
			}
		}(gid)
	}
	wg.Wait()

	roots := gtr.Buffer().Snapshots()
	if len(roots) != goroutines*perG {
		t.Fatalf("%d roots, want %d", len(roots), goroutines*perG)
	}
	attemptTrace := map[string]string{} // forward span_id -> trace_id
	for _, root := range roots {
		if root.Running || root.Name != "gate dist" || root.SpanID == "" {
			t.Fatalf("malformed root: %q running=%v span_id=%q", root.Name, root.Running, root.SpanID)
		}
		walkSpans(root, func(s *obs.SpanSnapshot) {
			if s.Running {
				t.Fatalf("span %q under %q still running", s.Name, root.Name)
			}
			if s.TraceID != root.TraceID {
				t.Fatalf("span %q has trace %q under root of trace %q", s.Name, s.TraceID, root.TraceID)
			}
			if strings.HasPrefix(s.Name, "forward ") {
				attemptTrace[s.SpanID] = s.TraceID
			}
		})
		if folds := childrenNamed(root, "ensemble_fold"); len(folds) == 1 {
			if folds[0].Metrics["members"] != 2 {
				t.Fatalf("fold members = %d", folds[0].Metrics["members"])
			}
			if got := len(childrenNamed(folds[0], "forward ")) + len(childrenNamed(folds[0], "route")) +
				len(childrenNamed(folds[0], "cache_lookup")) + len(childrenNamed(folds[0], "cache_doublecheck")); got == 0 {
				t.Fatalf("empty ensemble fold: %+v", folds[0])
			}
		}
	}
	replicaRoots := 0
	for _, tr := range tracers {
		for _, root := range tr.Buffer().Snapshots() {
			replicaRoots++
			if trace, ok := attemptTrace[root.ParentSpan]; !ok || trace != root.TraceID {
				t.Fatalf("replica root %q (trace %q) links to no gate attempt of its trace (parent %q)",
					root.Name, root.TraceID, root.ParentSpan)
			}
		}
	}
	if replicaRoots == 0 {
		t.Fatal("no replica roots recorded")
	}
}

func walkSpans(s *obs.SpanSnapshot, fn func(*obs.SpanSnapshot)) {
	fn(s)
	for _, c := range s.Children {
		walkSpans(c, fn)
	}
}

// TestGateTracingByteIdentity: the identical query stream through an
// untraced topology, a 0%-sampled topology, and a 100%-sampled topology
// answers byte-identical bodies at every step — the write-only contract
// end to end across both tiers.
func TestGateTracingByteIdentity(t *testing.T) {
	trees := buildTrees(t, 2, 14, 64)
	queries := [][2]string{
		{"/v1/dist", `{"tree":"t-0","pairs":[[0,1],[5,9]]}`},
		{"/v1/dist", `{"tree":"t-0","pairs":[[0,1],[5,9]]}`}, // cache hit
		{"/v1/knn", `{"tree":"t-1","point":3,"k":2}`},
		{"/v1/dist", `{"tree":"ens","pairs":[[2,7]]}`}, // ensemble fold
		{"/v1/medoid", `{"tree":"t-0"}`},
		{"/v1/dist", `{"tree":"missing","pairs":[[0,1]]}`}, // error path
	}
	run := func(sample float64, traced bool) []string {
		var urls []string
		if traced {
			urls, _ = tracedFleet(t, trees, 2, 0)
		} else {
			urls, _ = fleet(t, trees, 2)
		}
		_, gsrv := newGate(t, urls, nil, func(o *Options) {
			o.Ensembles = map[string][]string{"ens": {"t-0", "t-1"}}
			if traced {
				o.Tracer = obs.NewTracer(sample, 1024)
			}
		})
		var out []string
		for _, q := range queries {
			resp, err := http.Post(gsrv.URL+q[0], "application/json", strings.NewReader(q[1]))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%d|%s", resp.StatusCode, body))
		}
		return out
	}
	base := run(0, false)
	for _, sample := range []float64{0, 1} {
		got := run(sample, true)
		for i := range queries {
			if base[i] != got[i] {
				t.Fatalf("sample=%v diverges on %s %s:\nuntraced: %q\ntraced:   %q",
					sample, queries[i][0], queries[i][1], base[i], got[i])
			}
		}
	}
}

// TestGateRequestID: the gate generates a request id when absent,
// echoes a supplied one, and propagates it on every forward.
func TestGateRequestID(t *testing.T) {
	trees := buildTrees(t, 1, 15, 64)
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
	var mu sync.Mutex
	seen := map[string][]string{} // path -> forwarded request ids
	mux := http.NewServeMux()
	serve.NewServer(reg, serve.Options{}).RegisterMux(mux)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get(obs.RequestIDHeader))
		mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(backend.Close)

	_, gsrv := newGate(t, []string{backend.URL}, nil, nil)

	// Generated when absent, echoed in the response.
	var resp serve.DistResponse
	status, hdr := postJSON(t, gsrv.URL+"/v1/dist",
		serve.DistRequest{Tree: "t-0", Pairs: [][2]int{{0, 1}}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("dist: %d", status)
	}
	generated := hdr.Get(obs.RequestIDHeader)
	if generated == "" {
		t.Fatal("gate did not generate X-Request-ID")
	}

	// A supplied id is echoed verbatim and reaches the replica.
	req, _ := http.NewRequest(http.MethodPost, gsrv.URL+"/v1/dist",
		strings.NewReader((`{"tree":"t-0","pairs":[[3,4]]}`)))
	req.Header.Set(obs.RequestIDHeader, "client-id-42")
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if got := httpResp.Header.Get(obs.RequestIDHeader); got != "client-id-42" {
		t.Fatalf("echoed id %q, want client-id-42", got)
	}
	mu.Lock()
	defer mu.Unlock()
	ids := seen["/v1/dist"]
	found := map[string]bool{}
	for _, id := range ids {
		found[id] = true
	}
	if !found[generated] || !found["client-id-42"] {
		t.Fatalf("forwarded ids %v missing %q or client-id-42", ids, generated)
	}
	for _, id := range ids {
		if id == "" {
			t.Fatal("a forward carried no X-Request-ID")
		}
	}
}

// TestGateStatusRollup: /v1/status aggregates replica health, the
// merged tree view, coherence, cache statistics, and ensembles.
func TestGateStatusRollup(t *testing.T) {
	trees := buildTrees(t, 2, 16, 64)
	urls, servers := fleet(t, trees, 3)
	g, gsrv := newGate(t, urls, obs.New(), func(o *Options) {
		o.Ensembles = map[string][]string{"ens": {"t-0", "t-1"}}
	})

	// Some traffic so the cache has stats.
	for i := 0; i < 4; i++ {
		var resp serve.DistResponse
		if status, _ := postJSON(t, gsrv.URL+"/v1/dist",
			serve.DistRequest{Tree: "t-0", Pairs: [][2]int{{0, 1}}}, &resp); status != http.StatusOK {
			t.Fatalf("dist: %d", status)
		}
	}

	getStatus := func() StatusResponse {
		t.Helper()
		resp, err := http.Get(gsrv.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/status: %d", resp.StatusCode)
		}
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := getStatus()
	if st.Service != "treegate" || st.Backends != 3 || st.HealthyReplicas != 3 {
		t.Fatalf("status = %+v", st)
	}
	if !st.Coherent {
		t.Fatal("fresh fleet not coherent")
	}
	if len(st.Trees) != 2 || len(st.Replicas) != 3 {
		t.Fatalf("trees=%d replicas=%d", len(st.Trees), len(st.Replicas))
	}
	for _, r := range st.Replicas {
		if !r.Healthy || len(r.Trees) != 2 {
			t.Fatalf("replica %+v", r)
		}
		for _, ti := range r.Trees {
			if ti.Generation == 0 || ti.Version == 0 {
				t.Fatalf("replica tree missing snapshot identity: %+v", ti)
			}
		}
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Fatalf("cache stats empty: %+v", st.Cache)
	}
	if st.Cache.Mismatches != 0 {
		t.Fatalf("cache mismatches = %d", st.Cache.Mismatches)
	}
	if len(st.Ensembles["ens"]) != 2 {
		t.Fatalf("ensembles = %v", st.Ensembles)
	}
	if st.QualitySource == "" {
		t.Fatal("no quality source despite healthy fleet")
	}
	if st.QualityAlarms == nil {
		t.Fatal("quality_alarms must be [] not null")
	}
	if st.UptimeSeconds < 0 || st.Version == "" {
		t.Fatalf("identity fields: %+v", st)
	}

	// Kill a replica; the rollup notices after a poll.
	servers[2].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.poll()
		st = getStatus()
		if st.HealthyReplicas == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollup never saw the dead replica: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
