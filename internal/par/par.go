// Package par is the deterministic data-parallel execution layer for the
// compute that runs OUTSIDE MPC rounds: the sequential FJLT's batch
// application and P-matrix generation, the coordinator-side grid draw
// of Algorithm 2, quality audits, distortion measurement, the O(n²)
// minimum-distance scan, and the serving tier's batched dist/knn answers.
//
// Inside a Cluster.Round or LocalMap closure the machine goroutines are
// the only fan-out — each machine's local computation is sequential, as
// in the paper's MPC model — so no round closure calls into this package.
//
// Every fan-out is GOMAXPROCS wide, read once per call; there is no other
// width control. The design contract is reproducibility first: a
// computation fanned out through this package must produce bit-identical
// results at ANY GOMAXPROCS, including 1. The package guarantees that by
// construction:
//
//   - work is divided by static index-range sharding — shard i of s
//     covers [i·n/s, (i+1)·n/s) — and shards may only write to disjoint
//     state (their own index range, or their own shard-indexed
//     accumulator slot), so which goroutine runs which shard, and how
//     many shards there are, is irrelevant to the output;
//   - the pool is bounded — at most GOMAXPROCS goroutines run shard
//     bodies concurrently;
//   - reductions are the caller's job and must be performed serially in
//     item order; min/max-style reductions that are exactly associative
//     may fold per-shard results in any fixed order (MinMax).
//
// Randomness must NOT be drawn inside a sharded body: all RNG streams in
// this repository are serial by contract (internal/rng). Callers draw
// whatever randomness an item needs before fanning out, or derive it from
// hashed coordinates (rng.NewHashed), both of which are order-independent.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpctree/internal/obs"
)

// parSink holds the package's optional instrumentation series. Shard
// timing is observational only: it is written, never read, so fan-out
// results stay bit-identical with instrumentation on or off.
type parSink struct {
	fanouts     *obs.Counter
	shardsRun   *obs.Counter
	busyNs      *obs.Counter
	wallNs      *obs.Counter
	utilization *obs.Gauge
}

var sink atomic.Pointer[parSink]

// Instrument exports the fork/join layer's meters on reg:
//
//	par_fanouts_total         For/ForCtx/MinMax invocations
//	par_shards_total          shard bodies executed
//	par_shard_busy_ns_total   cumulative shard-body CPU-side wall time
//	par_fanout_wall_ns_total  cumulative fan-out wall time
//	par_utilization           busy/(wall×shards) of the last fan-out —
//	                          1.0 means perfectly balanced shards
//
// Worker utilization over any scrape interval is
// Δpar_shard_busy_ns_total / (Δpar_fanout_wall_ns_total × GOMAXPROCS).
func Instrument(reg *obs.Registry) {
	sink.Store(&parSink{
		fanouts:     reg.Counter("par_fanouts_total", "Data-parallel fan-out invocations."),
		shardsRun:   reg.Counter("par_shards_total", "Shard bodies executed across all fan-outs."),
		busyNs:      reg.Counter("par_shard_busy_ns_total", "Cumulative wall nanoseconds spent inside shard bodies."),
		wallNs:      reg.Counter("par_fanout_wall_ns_total", "Cumulative wall nanoseconds of whole fan-outs (fork to join)."),
		utilization: reg.Gauge("par_utilization", "busy/(wall*shards) of the most recent fan-out; 1.0 = perfectly balanced."),
	})
}

// record books one completed fan-out.
func (p *parSink) record(shards int, start time.Time, busy int64) {
	wall := time.Since(start).Nanoseconds()
	p.fanouts.Inc()
	p.shardsRun.Add(int64(shards))
	p.busyNs.Add(busy)
	p.wallNs.Add(wall)
	if wall > 0 && shards > 0 {
		p.utilization.Set(float64(busy) / (float64(wall) * float64(shards)))
	}
}

// For runs fn over [0, n) split into at most GOMAXPROCS contiguous shards,
// concurrently. fn(lo, hi) processes items lo ≤ i < hi and MUST touch only
// state owned by those indices (e.g. out[i] slots); under that contract
// the result is bit-identical for any GOMAXPROCS. GOMAXPROCS 1, n ≤ 1, or
// a single shard runs inline with no goroutines.
func For(n int, fn func(lo, hi int)) {
	forN(runtime.GOMAXPROCS(0), n, fn)
}

// forN is For at an explicit fan-out width.
func forN(workers, n int, fn func(lo, hi int)) {
	shards(workers, n, func(_, lo, hi int) { fn(lo, hi) })
}

// shards is forN with the shard index exposed: fn(shard, lo, hi) may
// additionally write to a shard-indexed accumulator slot (acc[shard]).
// The number of shards actually used is returned so callers can fold
// accumulators with it; it never exceeds min(workers, n).
//
// Deterministic reduction rule: per-shard partials may be folded serially
// in shard order only if the fold is insensitive to shard boundaries
// (exact min/max or integer sums). Floating-point sums that must be
// bit-identical across widths write per-ITEM values via For and fold
// serially instead.
func shards(workers, n int, fn func(shard, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	s := min(workers, n)
	// Optional instrumentation: wrap shard bodies to meter busy time.
	// The wrapper changes nothing about shard layout or ownership, so
	// the reproducibility contract is untouched.
	snk := sink.Load()
	var start time.Time
	var busy atomic.Int64
	body := fn
	if snk != nil {
		start = time.Now()
		body = func(shard, lo, hi int) {
			t0 := time.Now()
			fn(shard, lo, hi)
			busy.Add(time.Since(t0).Nanoseconds())
		}
	}
	if s <= 1 {
		body(0, 0, n)
		if snk != nil {
			snk.record(1, start, busy.Load())
		}
		return 1
	}
	// Static contiguous ranges: shard i covers [i*n/s, (i+1)*n/s).
	var wg sync.WaitGroup
	wg.Add(s)
	for i := 0; i < s; i++ {
		go func(i int) {
			defer wg.Done()
			body(i, i*n/s, (i+1)*n/s)
		}(i)
	}
	wg.Wait()
	if snk != nil {
		snk.record(s, start, busy.Load())
	}
	return s
}

// forCtxChunk is the cancellation-check granularity of ForCtx: shards
// poll ctx between chunks of this many items. Fixed (never derived from
// the fan-out width) so chunking cannot perturb anything observable.
const forCtxChunk = 64

// ForCtx is For with cooperative cancellation: shard bodies poll ctx
// between fixed-size chunks of the index range and stop early once it is
// done, so a caller whose deadline expired (an HTTP request timing out
// mid-batch) reclaims its cores instead of paying for a doomed result.
// Returns ctx's error if the fan-out was cut short — the output slots are
// then partially written and must be discarded — and nil on a complete
// run, whose results are bit-identical to For's at any GOMAXPROCS.
// fn must tolerate being called on sub-ranges of a shard (the per-item
// ownership contract already implies it).
func ForCtx(ctx context.Context, n int, fn func(lo, hi int)) error {
	return forCtx(ctx, runtime.GOMAXPROCS(0), n, fn)
}

// forCtx is ForCtx at an explicit fan-out width.
func forCtx(ctx context.Context, workers, n int, fn func(lo, hi int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var stopped atomic.Bool
	forN(workers, n, func(lo, hi int) {
		for lo < hi {
			if stopped.Load() {
				return
			}
			if ctx.Err() != nil {
				stopped.Store(true)
				return
			}
			end := lo + forCtxChunk
			if end > hi {
				end = hi
			}
			fn(lo, end)
			lo = end
		}
	})
	return ctx.Err()
}

// MinMax folds a per-item (min, max) pair in parallel at GOMAXPROCS: f(i)
// returns the item's value, and items reporting ok=false are skipped.
// Exact min/max folding is associative and commutative over float64 (no
// rounding), so the result is bit-identical for any width. Returns the
// caller-supplied identities (minID, maxID) untouched when every item is
// skipped.
func MinMax(n int, minID, maxID float64, f func(i int) (v float64, ok bool)) (min, max float64) {
	return minMax(runtime.GOMAXPROCS(0), n, minID, maxID, f)
}

// minMax is MinMax at an explicit fan-out width.
func minMax(workers, n int, minID, maxID float64, f func(i int) (v float64, ok bool)) (float64, float64) {
	if n <= 0 {
		return minID, maxID
	}
	s := min(workers, n)
	mins := make([]float64, s)
	maxs := make([]float64, s)
	shards(workers, n, func(shard, lo, hi int) {
		mn, mx := minID, maxID
		for i := lo; i < hi; i++ {
			v, ok := f(i)
			if !ok {
				continue
			}
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		mins[shard], maxs[shard] = mn, mx
	})
	foldMin, foldMax := minID, maxID
	for i := 0; i < s; i++ {
		if mins[i] < foldMin {
			foldMin = mins[i]
		}
		if maxs[i] > foldMax {
			foldMax = maxs[i]
		}
	}
	return foldMin, foldMax
}
