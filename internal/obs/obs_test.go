package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	// Idempotent registration returns the same cell.
	if r.Counter("test_total", "a counter").Value() != 42 {
		t.Fatal("re-registration did not return the existing counter")
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(3.5)
	g.SetMax(2) // lower: ignored
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v, want 7", g.Value())
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	New().Counter("x_total", "").Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("dual", "")
}

func TestLabelledSeriesAreDistinct(t *testing.T) {
	r := New()
	a := r.Counter("faults_total", "injected faults", "class", "crash")
	b := r.Counter("faults_total", "injected faults", "class", "drop")
	a.Add(3)
	b.Add(5)
	if a.Value() != 3 || b.Value() != 5 {
		t.Fatalf("labelled series shared state: %d, %d", a.Value(), b.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("words", "per-round words", []float64{10, 100, 1000})
	for _, v := range []float64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 5555 {
		t.Fatalf("sum = %v, want 5555", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series", len(snap))
	}
	want := []int64{1, 2, 3, 4} // cumulative per bucket incl +Inf
	for i, b := range snap[0].Buckets {
		if b.Cumulative != want[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Cumulative, want[i])
		}
	}
	if !math.IsInf(snap[0].Buckets[3].LE, 1) {
		t.Error("last bucket bound is not +Inf")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_peak", "")
	h := r.Histogram("conc_hist", "", []float64{100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.SetMax(float64(w*1000 + i))
				h.Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 7999 {
		t.Fatalf("peak gauge = %v, want 7999", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestPrometheusExportValidates(t *testing.T) {
	r := New()
	r.Counter("mpc_rounds_total", "rounds executed").Add(9)
	r.Counter("mpc_faults_injected_total", "faults", "class", "crash").Add(2)
	r.Counter("mpc_faults_injected_total", "faults", "class", "pressure").Inc()
	r.Gauge("mpc_peak_local_words", "peak residency").Set(12345)
	h := r.Histogram("mpc_round_sent_words", "per-round sends", []float64{64, 4096})
	h.Observe(100)
	h.Observe(1e6)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	families, err := ValidatePrometheus(text)
	if err != nil {
		t.Fatalf("exporter output does not validate: %v\noutput:\n%s", err, text)
	}
	for _, want := range []string{"mpc_rounds_total", "mpc_faults_injected_total", "mpc_peak_local_words", "mpc_round_sent_words"} {
		found := false
		for _, f := range families {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("family %s missing from validated output (got %v)", want, families)
		}
	}
	for _, wantLine := range []string{
		"# TYPE mpc_rounds_total counter",
		"mpc_rounds_total 9",
		`mpc_faults_injected_total{class="crash"} 2`,
		"mpc_peak_local_words 12345",
		`mpc_round_sent_words_bucket{le="+Inf"} 2`,
		"mpc_round_sent_words_count 2",
	} {
		if !strings.Contains(text, wantLine+"\n") {
			t.Errorf("output missing line %q:\n%s", wantLine, text)
		}
	}
}

func TestJSONExport(t *testing.T) {
	r := New()
	r.Counter("a_total", "help a").Add(7)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []Value `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON export does not parse: %v\n%s", err, buf.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("got %d series, want 2", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "a_total" || doc.Metrics[0].Value != 7 {
		t.Errorf("unexpected first series: %+v", doc.Metrics[0])
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	for name, text := range map[string]string{
		"bad name":        "9metric 1\n",
		"no value":        "metric\n",
		"bad value":       "metric abc\n",
		"unquoted label":  `metric{a=b} 1` + "\n",
		"type after data": "m 1\n# TYPE m counter\n",
		"split family":    "# TYPE a counter\na 1\nb 2\na 3\n",
	} {
		if _, err := ValidatePrometheus(text); err == nil {
			t.Errorf("%s: validated but should not:\n%s", name, text)
		}
	}
}
