package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct{ q, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of an empty sample should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values
// statistics.quantiles(xs, n=4) prints, small-sample extrapolation
// included.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{1.5, 2.25, 9, 4, 4, 4, 7, 8, 1, 0.5, 3}, [3]float64{1.5, 4, 7}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Errorf("quartiles of one value should fail")
	}
}

func TestSpread(t *testing.T) {
	got, err := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if err != nil {
		t.Fatal(err)
	}
	if want := (82.5 - 27.5) / 55; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if _, err := spread([]float64{-1, 0, 1}); err == nil {
		t.Errorf("spread with a zero median should fail")
	}
}

func TestCheckName(t *testing.T) {
	for _, ok := range []string{"op_p50_ms", "gate.cache_hit_ratio", "build-highdim", "9lives", "a"} {
		if err := checkName(ok); err != nil {
			t.Errorf("checkName(%q): %v", ok, err)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/y", "pct%", long} {
		if checkName(bad) == nil {
			t.Errorf("checkName(%q) accepted an invalid name", bad)
		}
	}
}

// TestMetricTablesMatchBenchmarkFile keeps the program and
// BENCHMARK.json in step: same workloads, same metrics in the same
// order with the same units, every name valid and used once.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if err := checkName(name); err != nil {
			t.Error(err)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: file %d/%d, program %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		use(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s must be an end-to-end metric")
	}
	for i, m := range bf.PerLayer {
		use(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and expects every op to verify and every metric to be there.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds trees and starts a fleet per workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "/plain", true: "/traced"}[trace], func(t *testing.T) {
				dir := t.TempDir()
				cfg := runConfig{workload: w.name, seed: 3, seconds: 0.4, trace: trace, tiny: true,
					workDir: dir, traceDir: filepath.Join(dir, "traces")}
				o, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := assemble(o, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d (first: %s)", r.Attempted, r.Failed, o.firstErr)
				}
				if !trace {
					if got := r.Metrics["ok_ratio"].Value; got != 1 {
						t.Errorf("ok_ratio = %v, want 1", got)
					}
					for _, m := range endToEnd {
						if r.Metrics[m.name].Value == 0 {
							t.Errorf("%s is 0", m.name)
						}
					}
					return
				}
				procs, err := spansPerProcess(filepath.Join(dir, "traces", w.name+".json"))
				if err != nil {
					t.Fatalf("reading the traced run's spans: %v", err)
				}
				want := 1 // the build pipeline
				if strings.HasPrefix(w.name, "serve-") {
					want = 3 // the gate and both replicas
				}
				if len(procs) != want {
					t.Errorf("spans from processes %v, want %d processes", procs, want)
				}
				for name, n := range procs {
					if n == 0 {
						t.Errorf("process %q recorded no spans", name)
					}
				}
			})
		}
	}
}

// spansPerProcess counts the span events of each process in a Chrome
// trace-event file, by process name.
func spansPerProcess(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	names := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Pid], _ = e.Args["name"].(string)
		}
	}
	out := map[string]int{}
	for _, name := range names {
		out[name] = 0
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			out[names[e.Pid]]++
		}
	}
	return out, nil
}
