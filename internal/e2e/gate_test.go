package e2e

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpctree/internal/hst"
	"mpctree/internal/treestore"
	"mpctree/internal/workload"
)

// TestGateSmoke runs the serving fleet as real processes: one point set
// embedded under 3 seeds and published into a versioned store, 3
// treeserve replicas over it, and treegate in front. It drives plain,
// ensemble and repeated (cache-hitting) queries through the gate,
// SIGKILLs a replica and restarts it on its port under traffic, and
// checks the gate's own telemetry: all 3 replicas healthy again, the
// cache-consistency counter (every 2nd hit re-verified against a live
// replica) exactly zero, and every request-latency series' p99 within
// its bound. On SIGTERM the gate scrapes the replicas and writes the
// merged timeline, in which replica spans nest under the gate's forward
// attempts. Then a second, untraced fleet is drilled (see gateDrill).
func TestGateSmoke(t *testing.T) {
	dir := scratch(t)
	for i := 0; i < 3; i++ {
		in := []string{"-in", "points.csv"}
		if i == 0 {
			in = []string{"-gen", "uniform", "-n", "96", "-d", "4", "-save-points", "points.csv"}
		}
		pub := run(t, dir, "treembed", append(in, "-trees", "0", "-seed", fmt.Sprint(i+1),
			"-store", "store", "-store-name", fmt.Sprintf("t-%d", i))...)
		mustMatch(t, "treembed -store", pub.stdout.String(), fmt.Sprintf(`stored as t-%d v1`, i))
	}
	if _, err := os.Stat(filepath.Join(dir, "store", "t-0", "CURRENT")); err != nil {
		t.Fatal(err)
	}

	// Replicas sample only propagated traces (-trace-sample 0): the
	// gate's head-sampling decision rides traceparent, so replica compute
	// spans nest under the gate's forward attempts.
	f := startFleet(t, dir, []string{"-trace-sample", "0"}, "-ensemble", "ens=t-0,t-1,t-2",
		"-trace-sample", "1", "-trace-out", "gate-trace.json", "-slo", "2s",
		"-health-interval", "250ms", "-cache-check", "2")
	base := f.base

	mustMatch(t, "/v1/trees", string(get(t, base+"/v1/trees")), `"version":1`, `"sha256"`)
	mustMatch(t, "/v1/ensembles", string(get(t, base+"/v1/ensembles")), `"ens"`)

	// An ensemble dist answers the elementwise min over the members; knn
	// on an ensemble is a client error; a wrong method is answered 405
	// before any handler runs.
	post(t, base+"/v1/dist", `{"tree":"ens","pairs":[[0,1],[9,20]]}`)
	if code := status(t, http.MethodPost, base+"/v1/knn", `{"tree":"ens","point":0,"k":2}`); code != http.StatusBadRequest {
		t.Fatalf("knn on an ensemble answered %d, want 400", code)
	}
	if code := status(t, http.MethodGet, base+"/v1/dist", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/dist answered %d, want 405", code)
	}
	// The same body 30 times hits the answer cache, and -cache-check 2
	// re-verifies every other hit against a live replica.
	const dist = `{"tree":"t-0","pairs":[[0,1],[2,3],[4,5]]}`
	for i := 0; i < 30; i++ {
		post(t, base+"/v1/dist", dist)
	}
	post(t, base+"/v1/knn", `{"tree":"t-1","point":4,"k":3}`)

	// The gate must absorb a replica's death: queries keep answering.
	f.replicas[1].kill(t)
	for i := 0; i < 20; i++ {
		post(t, base+"/v1/dist", dist)
	}
	f.restart(t, 1)

	var health struct {
		Status    string `json:"status"`
		GoVersion string `json:"go_version"`
	}
	decode(t, "/healthz", get(t, base+"/healthz"), &health)
	if health.Status != "ok" || health.GoVersion == "" {
		t.Fatalf("/healthz = %+v, want status ok and a go_version", health)
	}
	statusDoc := get(t, base+"/v1/status")
	var st struct {
		Service       string          `json:"service"`
		Backends      int             `json:"backends"`
		Coherent      bool            `json:"coherent"`
		QualityAlarms json.RawMessage `json:"quality_alarms"`
		Cache         map[string]any  `json:"cache"`
	}
	decode(t, "/v1/status", statusDoc, &st)
	if _, hits := st.Cache["hits"]; st.Service != "treegate" || st.Backends != 3 || !st.Coherent ||
		string(st.QualityAlarms) != "[]" || !hits {
		t.Fatalf("/v1/status wants service treegate, 3 backends, coherent, no quality alarms and cache hits:\n%s", statusDoc)
	}
	mustMatch(t, "/trace/requests", string(get(t, base+"/trace/requests")), `"gate dist"`)

	checkMetrics(t, base, "gate_requests_total", "gate_request_seconds", "gate_latency_p99_seconds",
		"gate_slo_breaches_total", "gate_replicas_healthy", "gate_replica_healthy",
		"gate_cache_hits_total", "gate_ensemble_requests_total", "gate_backend_requests_total")
	checkUp(t, base, "gate_replica_healthy", 3)
	checkGateCounters(t, base, 2.5)

	// SIGTERM the gate first: its drain scrapes every replica's
	// /trace/requests for the merged timeline, so they must still be up.
	f.gate.stop(t)
	checkGateTimeline(t, filepath.Join(dir, "gate-trace.json"))
	for _, r := range f.replicas {
		r.stop(t)
	}

	gateDrill(t, startFleet(t, dir, nil, "-ensemble", "ens=t-0,t-1,t-2", "-health-interval", "100ms", "-cache-check", "8"))
}

// fleet is 3 treeserve replicas over the store in dir and a treegate in
// front of them, all real processes.
type fleet struct {
	dir, base   string
	gate        *proc
	replicas    []*proc
	backends    []string
	replicaArgs []string
}

// startFleet starts the replicas, each with replicaArgs, then the gate
// with gateArgs.
func startFleet(t *testing.T, dir string, replicaArgs []string, gateArgs ...string) *fleet {
	f := &fleet{dir: dir, replicas: make([]*proc, 3), backends: make([]string, 3), replicaArgs: replicaArgs}
	args := []string{"-addr", "127.0.0.1:0"}
	for i := range f.replicas {
		f.backends[i] = f.replica(t, i, "127.0.0.1:0")
		args = append(args, "-backend", f.backends[i])
	}
	f.gate = start(t, dir, "treegate", append(args, gateArgs...)...)
	f.base = f.gate.served(t, "gating")
	return f
}

// replica starts replica i listening on addr and returns its URL.
func (f *fleet) replica(t *testing.T, i int, addr string) string {
	f.replicas[i] = start(t, f.dir, "treeserve", append([]string{"-store", "store", "-addr", addr}, f.replicaArgs...)...)
	return f.replicas[i].served(t, "serving")
}

// restart starts replica i again on its port.
func (f *fleet) restart(t *testing.T, i int) {
	f.replica(t, i, strings.TrimPrefix(f.backends[i], "http://"))
}

// gateDrill sends 20,000 requests of the mixed query stream through the
// fleet's gate from 8 clients, each also reloading t-0 every 64th request
// and naming the ensemble in every 4th that is a dist. Meanwhile the
// test's goroutine rolls the fleet: every 400 ms it SIGKILLs the next
// replica, round-robin, and starts it again on its port, so no two are
// down at once. The stream never repeats a body, which leaves the answer
// cache cold; so then, with the roller still running, 8 fixed dist
// batches are sent 40 times for the cache to serve hits and double-check
// them. Every dist and knn answer must equal t-0's from the store bit for
// bit, every ensemble dist the serial elementwise min over t-0, t-1 and
// t-2; no request may fail, a restart and an ensemble dist must have
// happened, the cache must have hit, and every gate_cache_mismatch_total
// sample must read 0.
func gateDrill(t *testing.T, f *fleet) {
	st, err := treestore.Open(filepath.Join(f.dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	var trees []*hst.Tree
	for i := 0; i < 3; i++ {
		tree, _, err := st.Load(fmt.Sprintf("t-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	d := &drill{base: f.base, tree: "t-0", trees: map[string][]*hst.Tree{"t-0": trees[:1], "ens": trees},
		clients: 8, reloadEvery: 64, ens: "ens", ensEvery: 4}
	done := make(chan struct{})
	t.Cleanup(func() { <-done }) // a failed restart must not leave the load running
	go func() {
		defer close(done)
		d.run(mixed(trees[0].NumPoints(), 20000))
		d.reloadEvery, d.ensEvery = 0, 0
		hot := workload.Queries(2, trees[0].NumPoints(), 8, 4, 1, workload.QueryMix{Dist: 1})
		for range 40 {
			d.run(hot)
		}
	}()
	restarts := 0
	for rolling := true; rolling; {
		select {
		case <-done:
			rolling = false
		case <-time.After(400 * time.Millisecond):
			i := restarts % len(f.replicas)
			f.replicas[i].kill(t)
			time.Sleep(200 * time.Millisecond)
			f.restart(t, i)
			restarts++
		}
	}

	values, doc, err := scrape(f.base)
	if err != nil {
		t.Fatal(err)
	}
	hits, mismatches := 0.0, 0.0
	for _, v := range values {
		switch v.Name {
		case "gate_cache_hits_total":
			hits += v.Value
		case "gate_cache_mismatch_total":
			mismatches += v.Value
		}
	}
	if d.failed.Load() > 0 || restarts == 0 || d.ensembles.Load() == 0 || hits == 0 || mismatches != 0 {
		t.Fatalf("drill: %v, %d restarts, %g cache hits, %g cache mismatches; want no failure, "+
			"a restart, an ensemble dist, a cache hit and no mismatch\n%s", d, restarts, hits, mismatches, doc)
	}
	t.Logf("drill: %v, %d restarts, %g cache hits", d, restarts, hits)
}

// checkGateCounters requires every gate_cache_mismatch_total sample to
// read 0 and every gate_request_seconds series that observed a request
// to estimate a p99 of at most maxP99 seconds, through the estimator
// behind the gate's own gate_latency_p99_seconds gauges.
func checkGateCounters(t *testing.T, base string, maxP99 float64) {
	t.Helper()
	values, doc, err := scrape(base)
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	observed := int64(0)
	for _, v := range values {
		switch {
		case v.Name == "gate_cache_mismatch_total" && v.Value != 0:
			bad = append(bad, fmt.Sprintf("%s = %g, want 0", series(v), v.Value))
		case v.Name == "gate_request_seconds" && len(v.Buckets) > 0:
			observed += v.Count
			if p99 := v.Quantile(0.99); v.Count > 0 && p99 > maxP99 {
				bad = append(bad, fmt.Sprintf("%s p99 ~%.3fs > %.3fs", series(v), p99, maxP99))
			}
		}
	}
	if observed == 0 {
		bad = append(bad, "gate_request_seconds has no observations")
	}
	if len(bad) > 0 {
		t.Fatalf("%s\n%s", strings.Join(bad, "\n"), doc)
	}
}

// checkGateTimeline validates the merged gate+replica timeline: treegate
// is process 0 with 3 replica rows beside it, and it holds gate root
// spans, forward attempts with span ids, a replica root whose parent is
// one of those attempts, and replica compute spans.
func checkGateTimeline(t *testing.T, path string) {
	t.Helper()
	tl, doc := readTimeline(t, path)
	procs := map[int]string{}
	attempts := map[string]bool{}
	gateRoots, compute := 0, 0
	for _, e := range tl.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			procs[e.Pid], _ = e.Args["name"].(string)
		case e.Ph != "X":
		case e.Pid == 0 && strings.HasPrefix(e.Name, "gate "):
			gateRoots++
		case e.Pid == 0 && strings.HasPrefix(e.Name, "forward "):
			if id, ok := e.Args["span_id"].(string); ok {
				attempts[id] = true
			}
		case e.Pid != 0 && strings.HasPrefix(e.Name, "compute_"):
			compute++
		}
	}
	nested, replicaRows := 0, 0
	for _, name := range procs {
		if strings.HasPrefix(name, "replica ") {
			replicaRows++
		}
	}
	for _, e := range tl.TraceEvents {
		if e.Ph == "X" && e.Pid != 0 && strings.HasPrefix(e.Name, "serve ") {
			if parent, _ := e.Args["parent_span"].(string); attempts[parent] {
				nested++
			}
		}
	}
	if procs[0] != "treegate" || replicaRows != 3 || gateRoots == 0 || len(attempts) == 0 || nested == 0 || compute == 0 {
		t.Fatalf("merged timeline: processes %v (want treegate first and 3 replicas), %d gate roots, "+
			"%d forward attempts with span ids, %d replica roots nested under them, %d compute spans:\n%s",
			procs, gateRoots, len(attempts), nested, compute, doc)
	}
}
