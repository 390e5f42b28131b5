// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the two user paths of mpctree from one process:
//
//   - build: points in → tree out through mpctree.EmbedMPC (FJLT, then
//     Algorithm 2, on the simulated 8-machine cluster);
//   - serve: client → gate → serve replica → client over loopback HTTP.
//
// One run measures one workload for a fixed number of seconds and
// prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and reports the
// per-layer metrics, writing the recorded spans to
// .bench_build/traces/ once it ends. -steady K runs every workload K
// times in child processes and prints each end-to-end metric's median,
// quartiles and spread against the bounds in BENCHMARK.json.
//
// Run it from the repository root through perfbench/run.sh, which
// builds this package first; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir is the scratch directory, relative to the checkout root,
// that run.sh also builds into.
const buildDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ok_ratio", "fraction"},
	{"alloc_mb_per_op", "MB"},
	{"mpc_rounds", "count"},
	{"peak_local_words", "words"},
	{"comm_words", "words"},
	{"distortion_mean", "ratio"},
}

// mpcPhases are the Algorithm-2 phases the pipeline's span hook reports.
var mpcPhases = []string{"grid_construction", "root_paths", "tree_build"}

// serveEndpoints are the replica query endpoints timed in-process.
var serveEndpoints = []string{"dist", "knn", "cut", "emd", "medoid"}

// perLayer lists the metrics a -trace 1 run reports, on every workload.
// A layer that a workload's ops never reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.jl_projection_ms", "ms"},
		{"core.tree_embed_ms", "ms"},
		{"fjlt.alloc_mb", "MB"},
		{"fjlt.rounds", "count"},
		{"fjlt.comm_words", "words"},
		{"hadamard.dist_fwht_ms", "ms"},
		{"hadamard.butterfly_ops", "count"},
	}
	for _, p := range mpcPhases {
		defs = append(defs,
			metricDef{"mpcembed." + p + "_ms", "ms"},
			metricDef{"mpcembed." + p + "_alloc_mb", "MB"},
			metricDef{"mpcembed." + p + "_comm_words", "words"})
	}
	defs = append(defs,
		metricDef{"mpcembed.grids", "count"},
		metricDef{"mpcembed.grid_words", "words"},
		metricDef{"go.gc_cycles_per_op", "count"},
		metricDef{"go.gc_pause_ms_per_op", "ms"},
		metricDef{"go.gc_cpu_fraction", "fraction"},
		metricDef{"hst.dist_ns_per_pair", "ns"},
		metricDef{"hst.knn_us_per_point", "us"},
		metricDef{"hst.cut_us", "us"},
		metricDef{"hst.emd_us", "us"},
		metricDef{"hst.medoid_us", "us"},
	)
	for _, ep := range serveEndpoints {
		defs = append(defs, metricDef{"serve.handler_" + ep + "_us", "us"})
	}
	defs = append(defs,
		metricDef{"serve.overhead_us", "us"},
		metricDef{"serve.reload_ms", "ms"},
		metricDef{"gate.hit_p50_us", "us"},
		metricDef{"gate.miss_p50_us", "us"},
		metricDef{"gate.cache_hit_ratio", "fraction"},
		metricDef{"gate.cache_evictions", "count"},
		metricDef{"gate.backend_requests_per_op", "count"},
		metricDef{"gate.retries", "count"},
		metricDef{"gate.backend_errors", "count"},
		metricDef{"trace.overhead_pct", "%"},
	)
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // shrink every input; for the package's own tests
	workDir  string // scratch space for tree stores
	traceDir string // where -trace 1 writes its spans; "" = don't write
}

// measure is the timed span of the run, split in half when traced.
func (c runConfig) measure() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	firstErr          string
	values            map[string]float64 // by metric name
}

// opMetrics fills the end-to-end metrics every workload derives the same
// way from its set-up times and its untraced segment: lat holds every
// attempted op, ok of them verified, over wall.
func opMetrics(v map[string]float64, setups []float64, lat []time.Duration, ok int, wall time.Duration) {
	latMs := durationsMs(lat)
	v["setup_s"] = median(setups)
	v["op_p50_ms"] = median(latMs)
	v["op_p99_ms"] = percentile(latMs, 99)
	v["ops_per_s"] = float64(ok) / wall.Seconds()
	v["ok_ratio"] = float64(ok) / float64(len(lat))
}

// workloadDef is one benchmark workload; BENCHMARK.json and README.md
// say why each exists.
type workloadDef struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{"build-highdim", func(c runConfig) (*outcome, error) { return runBuild(c, highdimShape(c.tiny)) }},
	{"build-manypoints", func(c runConfig) (*outcome, error) { return runBuild(c, manypointsShape(c.tiny)) }},
	{"serve-mixed", func(c runConfig) (*outcome, error) { return runServe(c, mixedShape(c.tiny)) }},
	{"serve-hot", func(c runConfig) (*outcome, error) { return runServe(c, hotShape(c.tiny)) }},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// assemble turns an outcome into the printed result, insisting that
// every metric the mode promises is present and finite.
func assemble(o *outcome, trace bool) (*result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload did not report %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady  = flag.Int("steady", 0, "run every workload of BENCHMARK.json this many times at its run_seconds (seeds seed, seed+1, …) and print the steadiness report")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadyReport(*steady, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fail(err)
	}
	cfg := runConfig{
		workload: w.name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  buildDir,
	}
	if cfg.trace {
		cfg.traceDir = filepath.Join(buildDir, "traces")
	}
	id := identify(cfg)
	idLine, _ := json.Marshal(id)
	fmt.Printf("# run %s\n", idLine)

	o, err := w.run(cfg)
	if err != nil {
		fail(err)
	}
	if o.firstErr != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %s\n", o.failed, o.attempted, o.firstErr)
	}
	res, err := assemble(o, cfg.trace)
	if err != nil {
		fail(err)
	}
	printHuman(res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// printHuman writes the metrics one per line, sorted, before the JSON.
func printHuman(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("#   %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("#   attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
