// benchdiff runs the width-scaling benchmark suite at workers=1 and
// workers=8 (the sub-benchmarks of bench_workers_test.go, each run at that
// GOMAXPROCS), plus the DistFWHT record-routing benchmark, the gate's hot
// path, the tree's KNN and cut kernels, one EmbedMPC at the build-highdim
// shape and the first-cover kernel, writes the results to a JSON report,
// and fails if any benchmark's median regressed by more than -threshold
// against the committed baseline.
//
//	go run ./cmd/benchdiff                  # auto-discovers the newest BENCH_*.json baseline
//	go run ./cmd/benchdiff -quick           # one iteration per benchmark (CI smoke)
//	go run ./cmd/benchdiff -count 5         # five runs per benchmark: medians and quartiles
//	go run ./cmd/benchdiff -out BENCH_PR5.json -baseline BENCH_PR2.json
//
// -count N passes -count=N to go test. Each row records the median of
// its N runs' ns/op, B/op and allocs/op, and the quartiles of ns/op;
// the gate compares medians.
//
// When -baseline is omitted the most recent committed baseline is
// auto-discovered, preferring like-for-like hardware: among the
// BENCH_PR<k>.json files in the current directory, the highest-numbered
// one whose recorded GOMAXPROCS matches this machine wins; if none
// matches, the highest-numbered overall (falling back to the
// lexicographically last BENCH_*.json), with the CPU-mismatch waiver
// below taking over for the parallel benchmarks.
//
// The report records the machine's GOMAXPROCS and CPU count: on a
// single-core machine the workers=8 variants measure the fan-out's
// scheduling overhead, not a speedup, and the speedup ratios must be read
// with that in mind. The determinism suite guarantees both variants
// compute identical bits, so the numbers are directly comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's result: the median over its runs of ns/op,
// B/op and allocs/op, and the quartiles of ns/op. Baselines recorded
// before -count existed hold one run and no quartiles.
type Bench struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsQ1        float64 `json:"ns_per_op_q1,omitempty"`
	NsQ3        float64 `json:"ns_per_op_q3,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the schema of the BENCH_*.json baselines.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"`
	Quick      bool   `json:"quick"`
	// Note is stamped at write time when the machine shape qualifies the
	// numbers (e.g. a single-core recording, where /workers=N>1 variants
	// measure fan-out overhead rather than parallel speedup).
	Note       string  `json:"note,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
	// Speedups maps each workers-parameterised benchmark to
	// ns(workers=1) / ns(workers=8); > 1 means the fan-out won.
	Speedups map[string]float64 `json:"speedups"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func runSuite(pkg, pattern, benchtime string, count int) ([]Bench, error) {
	cmd := exec.Command("go", "test", "-run=^$", "-bench="+pattern, "-benchmem", "-benchtime="+benchtime, "-count="+strconv.Itoa(count), pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench %s: %v\n%s", pkg, err, out)
	}
	bs := summarize(parseRuns(string(out)))
	if len(bs) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed from %s output:\n%s", pkg, out)
	}
	return bs, nil
}

// parseRuns returns one Bench per benchmark line of go test output, so
// a benchmark run -count times appears that many times.
func parseRuns(out string) []Bench {
	var bs []Bench
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		b := Bench{Name: m[1]}
		b.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			b.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
			b.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		bs = append(bs, b)
	}
	return bs
}

// summarize folds the runs of each benchmark into one row, in order of
// first appearance: the medians of ns/op, B/op and allocs/op, and the
// quartiles of ns/op.
func summarize(runs []Bench) []Bench {
	byName := map[string][]Bench{}
	var order []string
	for _, r := range runs {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Bench, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		col := func(f func(Bench) float64) []float64 {
			v := make([]float64, len(rs))
			for i, r := range rs {
				v[i] = f(r)
			}
			sort.Float64s(v)
			return v
		}
		ns := col(func(b Bench) float64 { return b.NsPerOp })
		out = append(out, Bench{
			Name:        name,
			Runs:        len(rs),
			NsPerOp:     quantile(ns, 0.5),
			NsQ1:        quantile(ns, 0.25),
			NsQ3:        quantile(ns, 0.75),
			BytesPerOp:  quantile(col(func(b Bench) float64 { return b.BytesPerOp }), 0.5),
			AllocsPerOp: quantile(col(func(b Bench) float64 { return b.AllocsPerOp }), 0.5),
		})
	}
	return out
}

// quantile is the p-quantile of sorted, non-empty v, interpolated
// linearly between order statistics.
func quantile(v []float64, p float64) float64 {
	pos := p * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func speedups(bs []Bench) map[string]float64 {
	byName := map[string]float64{}
	for _, b := range bs {
		byName[b.Name] = b.NsPerOp
	}
	out := map[string]float64{}
	for name, ns1 := range byName {
		base, ok := strings.CutSuffix(name, "/workers=1")
		if !ok {
			continue
		}
		if nsN, ok := byName[base+"/workers=8"]; ok && nsN > 0 {
			out[base] = ns1 / nsN
		}
	}
	return out
}

func main() {
	quick := flag.Bool("quick", false, "one iteration per benchmark (fast, noisy; CI smoke)")
	out := flag.String("out", "bench_report.json", "report file to write ('' to skip)")
	baseline := flag.String("baseline", "", "baseline to compare against ('' = auto-discover newest BENCH_*.json; 'none' or missing file skips the check)")
	threshold := flag.Float64("threshold", 0.20, "fail if median ns/op regresses by more than this fraction vs baseline")
	count := flag.Int("count", 1, "runs per benchmark (go test -count); rows record medians and ns/op quartiles")
	benchtime := flag.String("benchtime", "", "override -benchtime (default 0.5s, or 1x with -quick)")
	flag.Parse()
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "benchdiff: -count must be at least 1")
		os.Exit(2)
	}

	bt := "0.5s"
	if *quick {
		bt = "1x"
	}
	if *benchtime != "" {
		bt = *benchtime
	}

	// Baseline is read before the run so -out and -baseline may be the
	// same file (the normal workflow: compare against the committed
	// report, then refresh it).
	basePath := *baseline
	if basePath == "" {
		basePath = discoverBaseline(".", runtime.GOMAXPROCS(0))
		if basePath != "" {
			fmt.Fprintf(os.Stderr, "benchdiff: auto-discovered baseline %s\n", basePath)
		}
	} else if basePath == "none" {
		basePath = ""
	}
	var base *Report
	if basePath != "" {
		if data, err := os.ReadFile(basePath); err == nil {
			base = &Report{}
			if err := json.Unmarshal(data, base); err != nil {
				fmt.Fprintf(os.Stderr, "benchdiff: unreadable baseline %s: %v\n", basePath, err)
				os.Exit(2)
			}
		}
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		Quick:      *quick,
	}
	if rep.GOMAXPROCS == 1 {
		rep.Note = "recorded at GOMAXPROCS=1: the /workers=N>1 variants measure the worker pool's scheduling overhead, not a parallel speedup; read the speedup ratios only against a multi-core recording"
	}
	for _, suite := range []struct{ pkg, pattern string }{
		{"mpctree", "Workers|BenchmarkTreeKNN|BenchmarkTreeCut|BenchmarkEmbedMPCHighdim"},
		{"mpctree/internal/hadamard", "BenchmarkDistFWHT|BenchmarkFWHT1024|BenchmarkFWHTLarge"},
		{"mpctree/internal/gate", "BenchmarkGateHotPath"},
		{"mpctree/internal/grid", "BenchmarkFirstCover"},
	} {
		fmt.Fprintf(os.Stderr, "benchdiff: running %s -bench=%s -benchtime=%s -count=%d\n", suite.pkg, suite.pattern, bt, *count)
		bs, err := runSuite(suite.pkg, suite.pattern, bt, *count)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		rep.Benchmarks = append(rep.Benchmarks, bs...)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })
	rep.Speedups = speedups(rep.Benchmarks)

	for _, b := range rep.Benchmarks {
		spread := ""
		if b.Runs > 1 {
			spread = fmt.Sprintf("  [%.0f, %.0f] over %d runs", b.NsQ1, b.NsQ3, b.Runs)
		}
		fmt.Printf("%-55s %14.0f ns/op %12.0f B/op %10.0f allocs/op%s\n", b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, spread)
	}
	for _, base := range sortedKeys(rep.Speedups) {
		fmt.Printf("speedup %-47s %14.2fx (workers=1 vs workers=8, GOMAXPROCS=%d)\n", base, rep.Speedups[base], rep.GOMAXPROCS)
	}

	gating, waived := diffReports(&rep, base, *threshold)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	}

	if len(waived) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: WARNING: %d apparent regression(s) in parallel benchmarks, but baseline was recorded on %d CPUs / GOMAXPROCS %d and this machine has %d / %d — not comparable, not failing:\n",
			len(waived), base.CPUs, base.GOMAXPROCS, rep.CPUs, rep.GOMAXPROCS)
		for _, r := range waived {
			fmt.Fprintln(os.Stderr, "  ", r.msg)
		}
	}
	if len(gating) > 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: REGRESSIONS:")
		for _, r := range gating {
			fmt.Fprintln(os.Stderr, "  ", r.msg)
		}
		os.Exit(1)
	}
}

// regression is one over-threshold slowdown against the baseline.
type regression struct {
	name string
	msg  string
}

// diffReports compares a fresh report against the baseline and splits the
// over-threshold slowdowns into gating failures and waived warnings. Both
// sides' ns/op are medians (one run's value in a one-run row).
//
// A baseline recorded on different hardware is only partially comparable:
// benchmarks that fan work out across cores (/workers=N, N>1) shift with
// the core count and GOMAXPROCS, so a GENUINE mismatch in either
// downgrades those — and only those — to warnings. Serial benchmarks
// measure single-core work and ALWAYS gate hard, regardless of the
// machine shape; downgrading them too would let any hardware change mask
// a real regression.
func diffReports(rep, base *Report, threshold float64) (gating, waived []regression) {
	if base == nil {
		return nil, nil
	}
	old := map[string]Bench{}
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	cpuMismatch := base.CPUs != 0 &&
		(base.CPUs != rep.CPUs || (base.GOMAXPROCS != 0 && base.GOMAXPROCS != rep.GOMAXPROCS))
	for _, b := range rep.Benchmarks {
		o, ok := old[b.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		ratio := b.NsPerOp / o.NsPerOp
		if ratio <= 1+threshold {
			continue
		}
		r := regression{b.Name,
			fmt.Sprintf("%s: median %.0f ns/op vs baseline %.0f (%.0f%% slower, threshold %.0f%%)",
				b.Name, b.NsPerOp, o.NsPerOp, (ratio-1)*100, threshold*100)}
		if cpuMismatch && cpuSensitive(b.Name) {
			waived = append(waived, r)
		} else {
			gating = append(gating, r)
		}
	}
	return gating, waived
}

// cpuSensitive reports whether a benchmark's result depends on the
// machine's core count: the /workers=N variants with N > 1 fan out
// across cores; everything else is serial per-core work.
func cpuSensitive(name string) bool {
	i := strings.Index(name, "/workers=")
	if i < 0 {
		return false
	}
	return strings.TrimPrefix(name[i:], "/workers=") != "1"
}

// discoverBaseline picks the most recent committed baseline in dir,
// preferring like-for-like hardware: the BENCH_PR<k>.json with the
// highest k whose recorded GOMAXPROCS equals gomaxprocs, else the
// highest-k BENCH_PR<k>.json regardless of shape (the CPU-mismatch
// waiver handles the parallel benchmarks), else the lexicographically
// last BENCH_*.json, else "". Baselines that predate the gomaxprocs
// field (recorded 0) never match on shape but stay eligible as the
// fallback.
func discoverBaseline(dir string, gomaxprocs int) string {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		return ""
	}
	recordedProcs := func(path string) int {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0
		}
		var r Report
		if json.Unmarshal(data, &r) != nil {
			return 0
		}
		return r.GOMAXPROCS
	}
	bestPR, bestNum := "", -1
	matchPR, matchNum := "", -1
	for _, m := range matches {
		name := filepath.Base(m)
		numStr := strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_PR"), ".json")
		if numStr == name || numStr == "" {
			continue
		}
		k, err := strconv.Atoi(numStr)
		if err != nil {
			continue
		}
		if k > bestNum {
			bestPR, bestNum = m, k
		}
		if k > matchNum && recordedProcs(m) == gomaxprocs {
			matchPR, matchNum = m, k
		}
	}
	if matchPR != "" {
		return matchPR
	}
	if bestPR != "" {
		return bestPR
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
