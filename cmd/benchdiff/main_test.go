package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestCPUSensitive(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"BenchmarkEmbedPipeline/workers=8", true},
		{"BenchmarkEmbedPipeline/workers=2", true},
		{"BenchmarkEmbedPipeline/workers=1", false},
		{"BenchmarkFWHT1024", false},
		{"BenchmarkDistFWHT", false},
		{"BenchmarkNoSuffixworkers=8", false},
	}
	for _, c := range cases {
		if got := cpuSensitive(c.name); got != c.want {
			t.Errorf("cpuSensitive(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpeedups(t *testing.T) {
	bs := []Bench{
		{Name: "BenchmarkX/workers=1", NsPerOp: 800},
		{Name: "BenchmarkX/workers=8", NsPerOp: 200},
		{Name: "BenchmarkY/workers=1", NsPerOp: 100}, // no workers=8 twin
		{Name: "BenchmarkSerial", NsPerOp: 50},
	}
	got := speedups(bs)
	if len(got) != 1 || got["BenchmarkX"] != 4 {
		t.Fatalf("speedups = %v, want map[BenchmarkX:4]", got)
	}
}

func names(rs []regression) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.name
	}
	return out
}

// A serial benchmark over threshold must gate hard in every configuration
// — same machine shape or not.
func TestDiffSerialRegressionAlwaysGates(t *testing.T) {
	base := &Report{GOMAXPROCS: 8, CPUs: 8, Benchmarks: []Bench{
		{Name: "BenchmarkDistFWHT", NsPerOp: 1000},
	}}
	rep := &Report{GOMAXPROCS: 1, CPUs: 1, Benchmarks: []Bench{
		{Name: "BenchmarkDistFWHT", NsPerOp: 1300}, // 30% > 20%
	}}
	gating, waived := diffReports(rep, base, 0.20)
	if len(gating) != 1 || gating[0].name != "BenchmarkDistFWHT" {
		t.Fatalf("CPU mismatch: serial regression not gating: gating=%v waived=%v", names(gating), names(waived))
	}
	rep.GOMAXPROCS, rep.CPUs = 8, 8 // same shape: still gates
	gating, waived = diffReports(rep, base, 0.20)
	if len(gating) != 1 || len(waived) != 0 {
		t.Fatalf("same shape: gating=%v waived=%v", names(gating), names(waived))
	}
	rep.Benchmarks[0].NsPerOp = 1100 // 10% < 20%: clean
	if gating, waived = diffReports(rep, base, 0.20); len(gating)+len(waived) != 0 {
		t.Fatalf("under threshold: gating=%v waived=%v", names(gating), names(waived))
	}
}

// Parallel (/workers=N, N>1) benchmarks gate on matching hardware but are
// waived to warnings when the baseline was recorded on a different shape.
func TestDiffParallelRegressionWaivedOnCPUMismatch(t *testing.T) {
	base := &Report{GOMAXPROCS: 8, CPUs: 8, Benchmarks: []Bench{
		{Name: "BenchmarkEmbedPipelineWorkers/workers=8", NsPerOp: 1000},
	}}
	rep := &Report{GOMAXPROCS: 8, CPUs: 8, Benchmarks: []Bench{
		{Name: "BenchmarkEmbedPipelineWorkers/workers=8", NsPerOp: 1500},
	}}
	gating, waived := diffReports(rep, base, 0.20)
	if len(gating) != 1 || len(waived) != 0 {
		t.Fatalf("same shape: gating=%v waived=%v", names(gating), names(waived))
	}
	rep.GOMAXPROCS, rep.CPUs = 1, 1
	gating, waived = diffReports(rep, base, 0.20)
	if len(gating) != 0 || len(waived) != 1 {
		t.Fatalf("CPU mismatch: gating=%v waived=%v", names(gating), names(waived))
	}
}

func TestDiffNilBaseline(t *testing.T) {
	rep := &Report{Benchmarks: []Bench{{Name: "BenchmarkX", NsPerOp: 99}}}
	if gating, waived := diffReports(rep, nil, 0.20); len(gating)+len(waived) != 0 {
		t.Fatalf("nil baseline produced regressions: %v %v", names(gating), names(waived))
	}
}

func writeBaseline(t *testing.T, dir, name string, gomaxprocs int) {
	t.Helper()
	data, err := json.Marshal(Report{GOMAXPROCS: gomaxprocs, CPUs: gomaxprocs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Discovery prefers the newest baseline recorded at this machine's
// GOMAXPROCS over an even newer one recorded on different hardware.
func TestDiscoverBaselinePrefersMatchingGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_PR2.json", 4)
	writeBaseline(t, dir, "BENCH_PR5.json", 4)
	writeBaseline(t, dir, "BENCH_PR7.json", 64) // newest, wrong shape
	if got := discoverBaseline(dir, 4); filepath.Base(got) != "BENCH_PR5.json" {
		t.Fatalf("discoverBaseline(procs=4) = %q, want BENCH_PR5.json", got)
	}
	// On the 64-proc machine the newest baseline matches outright.
	if got := discoverBaseline(dir, 64); filepath.Base(got) != "BENCH_PR7.json" {
		t.Fatalf("discoverBaseline(procs=64) = %q, want BENCH_PR7.json", got)
	}
}

// With no shape match anywhere, discovery falls back to the newest PR
// baseline (the CPU-mismatch waiver then handles the parallel benches).
func TestDiscoverBaselineFallsBackToNewest(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_PR2.json", 4)
	writeBaseline(t, dir, "BENCH_PR5.json", 8)
	if got := discoverBaseline(dir, 2); filepath.Base(got) != "BENCH_PR5.json" {
		t.Fatalf("discoverBaseline(procs=2) = %q, want newest BENCH_PR5.json", got)
	}
	// Non-PR-numbered reports remain the last resort.
	dir2 := t.TempDir()
	writeBaseline(t, dir2, "BENCH_abc.json", 4)
	writeBaseline(t, dir2, "BENCH_xyz.json", 4)
	if got := discoverBaseline(dir2, 4); filepath.Base(got) != "BENCH_xyz.json" {
		t.Fatalf("discoverBaseline fallback = %q, want BENCH_xyz.json", got)
	}
	if got := discoverBaseline(t.TempDir(), 4); got != "" {
		t.Fatalf("empty dir: discoverBaseline = %q, want \"\"", got)
	}
}

// With -count N, go test prints each benchmark N times; a row is the
// median of its runs' ns/op, B/op and allocs/op plus the ns/op
// quartiles, and a one-run row reads its run.
func TestSummarizeRuns(t *testing.T) {
	out := `goos: linux
BenchmarkX-2   	     100	      1200 ns/op	     64 B/op	       2 allocs/op
BenchmarkY/workers=1-2   	      10	      50.5 ns/op
BenchmarkX-2   	     100	      1000 ns/op	     80 B/op	       3 allocs/op
BenchmarkX-2   	     100	      9000 ns/op	     64 B/op	       2 allocs/op
BenchmarkX-2   	     100	      1100 ns/op	     72 B/op	       2 allocs/op
PASS
`
	got := summarize(parseRuns(out))
	want := []Bench{
		{Name: "BenchmarkX", Runs: 4, NsPerOp: 1150, NsQ1: 1075, NsQ3: 3150, BytesPerOp: 68, AllocsPerOp: 2},
		{Name: "BenchmarkY/workers=1", Runs: 1, NsPerOp: 50.5, NsQ1: 50.5, NsQ3: 50.5},
	}
	if len(got) != len(want) {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// The gate compares medians: one slow run of three does not fail a
// row, two do.
func TestDiffGatesOnMedian(t *testing.T) {
	base := &Report{GOMAXPROCS: 2, CPUs: 2, Benchmarks: []Bench{{Name: "BenchmarkX", NsPerOp: 1000}}}
	run := func(ns ...float64) *Report {
		var runs []Bench
		for _, v := range ns {
			runs = append(runs, Bench{Name: "BenchmarkX", Runs: 1, NsPerOp: v})
		}
		return &Report{GOMAXPROCS: 2, CPUs: 2, Benchmarks: summarize(runs)}
	}
	if gating, _ := diffReports(run(1000, 5000, 1100), base, 0.20); len(gating) != 0 {
		t.Fatalf("one outlier run gated: %v", names(gating))
	}
	if gating, _ := diffReports(run(1000, 5000, 1300), base, 0.20); len(gating) != 1 {
		t.Fatalf("median 30%% over the baseline did not gate")
	}
}
