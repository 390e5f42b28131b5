package fleet

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mpctree/internal/obs"
)

// fakeWorker serves a real obs registry and, when traces is non-nil, its
// service spans through the handlers mpcworker's debug endpoint uses, so
// the scraper is tested against the genuine JSON shapes, not hand-rolled
// fixtures.
func fakeWorker(t *testing.T, reg *obs.Registry, traces *obs.TraceBuffer) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			t.Errorf("fake worker WriteJSON: %v", err)
		}
	})
	if traces != nil {
		obs.RegisterRequestTraces(mux, traces)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// workerReg builds a registry holding the series a real instrumented
// worker exports, with the given residency peak.
func workerReg(peak float64) *obs.Registry {
	reg := obs.New()
	obs.RegisterBuildInfo(reg)
	reg.Counter("mpcworker_ops_total", "ops", "op", "append").Add(7)
	reg.Gauge("mpcworker_peak_resident_words", "peak").Set(peak)
	h := reg.Histogram("mpcworker_op_seconds", "latency", []float64{0.001, 0.1}, "op", "append")
	h.Observe(0.0005)
	h.Observe(0.05)
	return reg
}

func TestScrapeReExport(t *testing.T) {
	w0 := fakeWorker(t, workerReg(100), nil)
	w1 := fakeWorker(t, workerReg(250), nil)
	reg := obs.New()
	s := New(reg, []Target{{ID: "0", URL: w0.URL}, {ID: "1", URL: w1.URL}})
	s.ScrapeOnce()

	// Worker series reappear as worker_* gauges with the worker label
	// first; the mpcworker_ prefix is stripped, others (build_info) are
	// prefixed as-is.
	if got := reg.Gauge("worker_ops_total", "", "worker", "0", "op", "append").Value(); got != 7 {
		t.Errorf("worker_ops_total{worker=0,op=append} = %v, want 7", got)
	}
	if got := reg.Gauge("worker_peak_resident_words", "", "worker", "1").Value(); got != 250 {
		t.Errorf("worker_peak_resident_words{worker=1} = %v, want 250", got)
	}
	// Histograms flatten to _sum/_count gauges.
	if got := reg.Gauge("worker_op_seconds_count", "", "worker", "0", "op", "append").Value(); got != 2 {
		t.Errorf("worker_op_seconds_count = %v, want 2", got)
	}
	if got := reg.Gauge("worker_op_seconds_sum", "", "worker", "0", "op", "append").Value(); got != 0.0505 {
		t.Errorf("worker_op_seconds_sum = %v, want 0.0505", got)
	}
	// build_info has no mpcworker_ prefix but still gets re-exported.
	found := false
	snap := reg.Snapshot()
	for _, v := range snap {
		if v.Name == "worker_build_info" && v.Labels["worker"] == "0" {
			found = true
		}
	}
	if !found {
		t.Error("worker_build_info{worker=0} missing from coordinator registry")
	}
	// Liveness and rollups.
	for _, id := range []string{"0", "1"} {
		if got := reg.Gauge("worker_up", "", "worker", id).Value(); got != 1 {
			t.Errorf("worker_up{worker=%s} = %v, want 1", id, got)
		}
	}
	if got := reg.Gauge("fleet_workers", "").Value(); got != 2 {
		t.Errorf("fleet_workers = %v, want 2", got)
	}
	if got := reg.Gauge("fleet_workers_up", "").Value(); got != 2 {
		t.Errorf("fleet_workers_up = %v, want 2", got)
	}
	if got := reg.Gauge("fleet_peak_resident_words", "").Value(); got != 250 {
		t.Errorf("fleet_peak_resident_words = %v, want max(100,250)=250", got)
	}

	// A second sweep re-registers every series under the same keys —
	// idempotent, no duplicates in the exposition.
	s.ScrapeOnce()
	var ups int
	for _, v := range reg.Snapshot() {
		if v.Name == "worker_up" {
			ups++
		}
	}
	if ups != 2 {
		t.Errorf("worker_up series after second sweep = %d, want 2", ups)
	}
}

func TestDeadWorkerStalenessAndPeakRetention(t *testing.T) {
	w0 := fakeWorker(t, workerReg(100), nil)
	w1 := fakeWorker(t, workerReg(999), nil) // the bigger footprint dies
	reg := obs.New()
	s := New(reg, []Target{{ID: "0", URL: w0.URL}, {ID: "1", URL: w1.URL}})
	s.ScrapeOnce()
	if got := reg.Gauge("fleet_workers_up", "").Value(); got != 2 {
		t.Fatalf("precondition: fleet_workers_up = %v, want 2", got)
	}

	w1.Close() // SIGKILL stand-in: endpoint gone mid-run
	time.Sleep(20 * time.Millisecond)
	s.ScrapeOnce()

	if got := reg.Gauge("worker_up", "", "worker", "1").Value(); got != 0 {
		t.Errorf("worker_up{worker=1} after death = %v, want 0", got)
	}
	if got := reg.Gauge("worker_up", "", "worker", "0").Value(); got != 1 {
		t.Errorf("worker_up{worker=0} = %v, survivor must stay up", got)
	}
	if got := reg.Counter("fleet_scrape_errors_total", "", "worker", "1").Value(); got < 1 {
		t.Errorf("fleet_scrape_errors_total{worker=1} = %v, want >= 1", got)
	}
	// Staleness: the dead worker's last successful scrape recedes while
	// the survivor's age resets every sweep.
	age1 := reg.Gauge("worker_scrape_age_seconds", "", "worker", "1").Value()
	if age1 <= 0 {
		t.Errorf("worker_scrape_age_seconds{worker=1} = %v, want > 0", age1)
	}
	if got := reg.Gauge("fleet_workers_up", "").Value(); got != 1 {
		t.Errorf("fleet_workers_up = %v, want 1", got)
	}
	// The dead worker's peak residency is retained: it really held those
	// words before it died, and the fleet max must not shrink.
	if got := reg.Gauge("fleet_peak_resident_words", "").Value(); got != 999 {
		t.Errorf("fleet_peak_resident_words = %v, want dead worker's 999 retained", got)
	}

	// A worker with no obs endpoint at all is down from the start and
	// counts an error per sweep, never a panic.
	s2 := New(obs.New(), []Target{{ID: "x", URL: ""}})
	s2.ScrapeOnce()
}

func TestStartStopLoop(t *testing.T) {
	w0 := fakeWorker(t, workerReg(10), nil)
	reg := obs.New()
	s := New(reg, []Target{{ID: "0", URL: w0.URL}})
	s.Start(time.Millisecond)
	defer s.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge("worker_up", "", "worker", "0").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("Start loop never scraped the worker")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
}

func TestFetchSpans(t *testing.T) {
	tracer := obs.NewTracer(0, 8)
	remote := obs.NewSpan("mpcnet_client").Child("append")
	sp := tracer.StartRequest(remote.Context(), "append")
	sp.Add("seq", 3)
	tracer.Finish(sp)
	live := fakeWorker(t, workerReg(1), tracer.Buffer())
	bare := fakeWorker(t, workerReg(1), nil) // serves no /trace/requests

	s := New(obs.New(), []Target{
		{ID: "0", URL: live.URL},
		{ID: "1", URL: ""}, // dead: no endpoint
		{ID: "2", URL: bare.URL},
	})
	procs := s.FetchSpans()
	if len(procs) != 3 {
		t.Fatalf("FetchSpans rows = %d, want 3 (one per target)", len(procs))
	}
	if procs[0].Name != "worker 0" || len(procs[0].Roots) != 1 {
		t.Fatalf("live worker row = %+v, want one root", procs[0])
	}
	got := procs[0].Roots[0]
	if got.Name != "append" || got.Metrics["seq"] != 3 || got.ParentSpan != remote.Snapshot().SpanID {
		t.Errorf("scraped service span mangled: %+v", got)
	}
	if got.StartUnixNs == 0 {
		t.Error("scraped span lost StartUnixNs — cross-process merge has no clock")
	}
	if len(procs[1].Roots) != 0 {
		t.Errorf("dead worker row has %d roots, want an empty row", len(procs[1].Roots))
	}
	if len(procs[2].Roots) != 0 {
		t.Errorf("span-less worker row has %d roots, want 0", len(procs[2].Roots))
	}
}
