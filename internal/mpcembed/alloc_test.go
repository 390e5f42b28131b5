package mpcembed

import (
	"runtime"
	"testing"

	"mpctree/internal/mpc"
)

// TestEmbedAllocCeiling pins Algorithm 2's heap objects and bytes per run
// on 1024 points in d = 8 over 8 machines at the fully scalable cap. While
// the union took a round of its own — every record sent back to the
// machine it was on, and string-keyed maps built over all of them twice —
// and the driver assembled the tree on string keys, a run allocated ~72k
// objects and ~28.5 MB; owner-side dedup and 128-bit ids read ~29k and
// ~13 MB. Laying the tree's Children lists out of one slab instead of one
// append per node read ~16.3k objects and ~13.9 MB: the finished tree
// also derives its query state (preorder, diameter bounds, medoid).
// Emit buffers that grow by chunks instead of by copying, a driver
// assembly into one reserved arena, and one grid search per level for
// the zero-padding buckets (d = 8 with r = 7 has three) read ~16.2k
// objects and ~8.3 MB. Keying a machine's emitted edges by slices of one
// string of its chain ids, instead of one string per edge, read ~3.1k
// objects and ~8.3 MB. Shipping only the path records, one per point, and
// building the tree from them on the coordinator, with no edge or leaf
// records and no dedup maps, read ~2.7k objects and ~4.2 MB.
func TestEmbedAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	const n, d, machines = 1024, 8, 8
	pts := latticePts(t, 3, n, d, 1024)
	capWords := mpc.FullyScalableCap(n, d, 0.7, 256)
	run := func() {
		c := mpc.New(mpc.Config{Machines: machines, CapWords: capWords})
		if _, _, err := Embed(c, pts, Options{Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up
	const runs = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
	const allocCeiling, mbCeiling = 3000, 5
	if allocs > allocCeiling || mb > mbCeiling {
		t.Fatalf("Embed allocates %.0f objects and %.1f MB per run, ceilings %d and %d MB", allocs, mb, allocCeiling, mbCeiling)
	}
	t.Logf("Embed allocs/run = %.0f (ceiling %d), MB/run = %.1f (ceiling %d)", allocs, allocCeiling, mb, mbCeiling)
}
