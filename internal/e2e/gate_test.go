package e2e

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateSmoke runs the serving fleet as real processes: 3
// independently seeded trees published into a versioned store, 3
// treeserve replicas over it, and treegate in front. It drives plain,
// ensemble and repeated (cache-hitting) queries through the gate,
// SIGKILLs a replica and restarts it on its port under traffic, and
// checks the gate's own telemetry: all 3 replicas healthy again, the
// cache-consistency counter (every 2nd hit re-verified against a live
// replica) exactly zero, and every request-latency series' p99 within
// its bound. On SIGTERM the gate scrapes the replicas and writes the
// merged timeline, in which replica spans nest under the gate's forward
// attempts. The selftest then repeats the drill in-process at scale.
func TestGateSmoke(t *testing.T) {
	dir := scratch(t)
	for i := 0; i < 3; i++ {
		pub := run(t, dir, "treembed", "-gen", "uniform", "-n", "96", "-d", "4", "-trees", "0",
			"-seed", fmt.Sprint(i+1), "-store", "store", "-store-name", fmt.Sprintf("t-%d", i))
		mustMatch(t, "treembed -store", pub.stdout.String(), fmt.Sprintf(`stored as t-%d v1`, i))
	}
	if _, err := os.Stat(filepath.Join(dir, "store", "t-0", "CURRENT")); err != nil {
		t.Fatal(err)
	}

	// Replicas sample only propagated traces (-trace-sample 0): the
	// gate's head-sampling decision rides traceparent, so replica compute
	// spans nest under the gate's forward attempts.
	replica := func(addr string) (*proc, string) {
		r := start(t, dir, "treeserve", "-store", "store", "-addr", addr, "-trace-sample", "0")
		return r, r.served(t, "serving")
	}
	var replicas []*proc
	var backends []string
	args := []string{"-addr", "127.0.0.1:0"}
	for i := 0; i < 3; i++ {
		r, url := replica("127.0.0.1:0")
		replicas = append(replicas, r)
		backends = append(backends, url)
		args = append(args, "-backend", url)
	}
	gate := start(t, dir, "treegate", append(args, "-ensemble", "ens=t-0,t-1,t-2",
		"-trace-sample", "1", "-trace-out", "gate-trace.json", "-slo", "2s",
		"-health-interval", "250ms", "-cache-check", "2")...)
	base := gate.served(t, "gating")

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
	replicas[1].kill(t)
	for i := 0; i < 20; i++ {
		post(t, base+"/v1/dist", dist)
	}
	replicas[1], _ = replica(strings.TrimPrefix(backends[1], "http://"))

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
	gate.stop(t)
	checkGateTimeline(t, filepath.Join(dir, "gate-trace.json"))
	for _, r := range replicas {
		r.stop(t)
	}

	self := run(t, dir, "treegate", "-selftest", "-log-level", "warn")
	mustMatch(t, "treegate -selftest", self.stdout.String(), `selftest PASSED`)
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
