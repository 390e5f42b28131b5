package main

import (
	"runtime"
	"runtime/metrics"
)

// runIdentity is the CPU shape and run identity every output records.
type runIdentity struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	// Commit is the git revision the binary was built from, "+dirty"
	// with uncommitted changes; "unknown" outside a git checkout.
	Commit string `json:"commit"`
}

func identify(c runConfig) runIdentity {
	return runIdentity{
		Workload:   c.workload,
		Seed:       c.seed,
		Seconds:    c.seconds,
		Trace:      c.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
	}
}

// commit is the git revision of the checkout, set at link time by
// run.sh (-X main.commit=…); "unknown" outside a git checkout.
var commit = "unknown"

// rtSnap is a point-in-time reading of the Go runtime counters the
// go.* layer metrics are built from.
type rtSnap struct {
	allocBytes uint64  // cumulative heap bytes allocated
	gcCycles   uint64  // completed GC cycles
	pauseNs    uint64  // cumulative stop-the-world GC pause
	gcCPU      float64 // cumulative CPU seconds spent in GC
	totalCPU   float64 // cumulative CPU seconds available (GOMAXPROCS × wall)
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// heapAllocs reads the cumulative heap allocation without stopping the
// world; cheap enough to call around every op.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readRuntime takes a full reading. It calls runtime.ReadMemStats for
// the exact pause total, which stops the world, so call it only at the
// edges of a measured region.
func readRuntime() rtSnap {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

// minus is the change from a to r.
func (r rtSnap) minus(a rtSnap) rtSnap {
	return rtSnap{
		allocBytes: r.allocBytes - a.allocBytes,
		gcCycles:   r.gcCycles - a.gcCycles,
		pauseNs:    r.pauseNs - a.pauseNs,
		gcCPU:      r.gcCPU - a.gcCPU,
		totalCPU:   r.totalCPU - a.totalCPU,
	}
}

// plus adds two changes.
func (r rtSnap) plus(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes: r.allocBytes + b.allocBytes,
		gcCycles:   r.gcCycles + b.gcCycles,
		pauseNs:    r.pauseNs + b.pauseNs,
		gcCPU:      r.gcCPU + b.gcCPU,
		totalCPU:   r.totalCPU + b.totalCPU,
	}
}

// goLayer fills the go.* metrics from the change d of the runtime
// counters over ops operations.
func goLayer(values map[string]float64, d rtSnap, ops int) {
	n := float64(max(ops, 1))
	values["go.gc_cycles_per_op"] = float64(d.gcCycles) / n
	values["go.gc_pause_ms_per_op"] = float64(d.pauseNs) / 1e6 / n
	frac := 0.0
	if d.totalCPU > 0 {
		frac = d.gcCPU / d.totalCPU
	}
	values["go.gc_cpu_fraction"] = frac
}
