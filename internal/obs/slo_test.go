package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantile(t *testing.T) {
	reg := New()
	h := reg.Histogram("q_seconds", "", []float64{0.1, 0.2, 0.4, 0.8})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	// 100 samples spread uniformly over (0, 0.4]: 25 per bucket in the
	// first three buckets... use a simple known layout instead: 50 in
	// (0,0.1], 30 in (0.1,0.2], 15 in (0.2,0.4], 5 in (0.4,0.8].
	fill := func(n int, v float64) {
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
	}
	fill(50, 0.05)
	fill(30, 0.15)
	fill(15, 0.3)
	fill(5, 0.6)

	// p50: rank 50 falls exactly at the top of the first bucket.
	if got := h.Quantile(0.50); got < 0.099 || got > 0.101 {
		t.Fatalf("p50 = %v, want ~0.1", got)
	}
	// p99: rank 99 is 4/5 into the (0.4, 0.8] bucket -> 0.4 + 0.8*0.4.
	if got := h.Quantile(0.99); got < 0.71 || got > 0.73 {
		t.Fatalf("p99 = %v, want ~0.72", got)
	}
	// p100 lands at the last bound.
	if got := h.Quantile(1); got != 0.8 {
		t.Fatalf("p100 = %v, want 0.8", got)
	}

	// Overflow samples clamp to the last finite bound.
	h2 := reg.Histogram("q2_seconds", "", []float64{0.1})
	h2.Observe(5)
	if got := h2.Quantile(0.99); got != 0.1 {
		t.Fatalf("overflow p99 = %v, want 0.1", got)
	}
}

func TestObjective(t *testing.T) {
	reg := New()
	h := reg.Histogram("serve_request_seconds", "", []float64{0.01, 0.1, 1}, "endpoint", "dist")
	o := NewObjective(reg, "serve", "dist", h, 0.1)
	if o == nil {
		t.Fatal("objective nil with live registry")
	}
	for i := 0; i < 10; i++ {
		o.Observe(0.005)
	}
	o.Observe(0.5) // breach
	o.Observe(0.5) // breach

	if got := o.breaches.Value(); got != 2 {
		t.Fatalf("breaches = %d, want 2", got)
	}
	if h.Count() != 12 {
		t.Fatalf("histogram count = %d, want 12", h.Count())
	}
	// Gauges were seeded on the first observation; force a refresh and
	// check they move.
	for i := int64(0); i < quantileRefreshEvery; i++ {
		o.Observe(0.005)
	}
	if p50 := o.p50.Value(); p50 <= 0 || p50 > 0.01 {
		t.Fatalf("p50 gauge = %v", p50)
	}
	found := false
	for _, v := range reg.Snapshot() {
		if v.Name == "serve_latency_objective_seconds" && v.Labels["endpoint"] == "dist" {
			found = true
			if v.Value != 0.1 {
				t.Fatalf("objective gauge = %v, want 0.1", v.Value)
			}
		}
	}
	if !found {
		t.Fatal("objective gauge not exported")
	}

	// Nil objective (no registry) is inert.
	var nilO *Objective
	nilO.Observe(1)
	if NewObjective(nil, "serve", "dist", h, 0.1) != nil {
		t.Fatal("NewObjective with nil registry not nil")
	}
}

// TestSlowRequestsLogAtWarn: the objective is the one latency threshold.
// A request over SLOTarget gives one Warn "request" record and one
// breach; a request under it gives one Info record; with no logger
// there is no record, and the breach is still counted.
func TestSlowRequestsLogAtWarn(t *testing.T) {
	const target = 100 * time.Millisecond
	var delay time.Duration
	handler := func(w http.ResponseWriter, r *http.Request) { time.Sleep(delay) }
	var buf bytes.Buffer
	reg := New()
	h := NewRequests(RequestsConfig{Family: "test", Registry: reg, SLOTarget: target,
		MaxBodyBytes: 1 << 10, Logger: slog.New(slog.NewJSONHandler(&buf, nil))}).Wrap("echo", http.MethodGet, handler)
	breaches := func() int64 { return reg.Counter("test_slo_breaches_total", "", "endpoint", "echo").Value() }
	records := func() []map[string]any {
		var out []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("access record %q: %v", line, err)
			}
			out = append(out, rec)
		}
		buf.Reset()
		return out
	}

	delay = target + 10*time.Millisecond
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/echo", nil))
	recs := records()
	if len(recs) != 1 || recs[0]["level"] != "WARN" || recs[0]["msg"] != "request" || recs[0]["endpoint"] != "echo" {
		t.Fatalf("slow request logged %v, want one WARN request record", recs)
	}
	if got := breaches(); got != 1 {
		t.Fatalf("breaches after a slow request = %d, want 1", got)
	}

	delay = 0
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/echo", nil))
	recs = records()
	if len(recs) != 1 || recs[0]["level"] != "INFO" || recs[0]["msg"] != "request" {
		t.Fatalf("fast request logged %v, want one INFO request record", recs)
	}
	if got := breaches(); got != 1 {
		t.Fatalf("breaches after a fast request = %d, want still 1", got)
	}

	silent := New()
	delay = target + 10*time.Millisecond
	NewRequests(RequestsConfig{Family: "test", Registry: silent, SLOTarget: target, MaxBodyBytes: 1 << 10}).
		Wrap("echo", http.MethodGet, handler)(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/echo", nil))
	if buf.Len() != 0 {
		t.Fatalf("a wrapper without a logger wrote %q", buf.String())
	}
	if got := silent.Counter("test_slo_breaches_total", "", "endpoint", "echo").Value(); got != 1 {
		t.Fatalf("breaches without a logger = %d, want 1", got)
	}
}
