package partition

import (
	"runtime"
	"testing"

	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// GOMAXPROCS invariance for the partition kernels. Each run consumes a
// fresh RNG seeded identically — the grids drawn, the ids assigned, and
// even the number of grids consulted must all match exactly.

func latticePts(seed uint64, n, d int) []vec.Point {
	r := rng.New(seed)
	pts := make([]vec.Point, n)
	for i := range pts {
		pts[i] = make(vec.Point, d)
		for j := range pts[i] {
			pts[i][j] = float64(r.Intn(64))
		}
	}
	return pts
}

func assertResultsEqual(t *testing.T, want, got Result, label string) {
	t.Helper()
	if got.Uncovered != want.Uncovered || got.GridsUsed != want.GridsUsed {
		t.Fatalf("%s: bookkeeping differs: uncovered %d vs %d, grids %d vs %d",
			label, got.Uncovered, want.Uncovered, got.GridsUsed, want.GridsUsed)
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("%s: point %d id %q vs %q", label, i, got.IDs[i], want.IDs[i])
		}
	}
}

// atProcs returns f's result computed at the given GOMAXPROCS.
func atProcs(procs int, f func() Result) Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return f()
}

func TestBallPartitionWorkerInvariant(t *testing.T) {
	pts := latticePts(41, 45, 3)
	const w, maxGrids = 24.0, 4096
	run := func() Result { return BallPartition(rng.New(7), pts, w, maxGrids) }
	assertResultsEqual(t, atProcs(1, run), atProcs(8, run), "BallPartition at GOMAXPROCS 8 vs 1")
}

func TestHybridPartitionWorkerInvariant(t *testing.T) {
	pts := latticePts(43, 45, 8)
	const w, r, maxGrids = 48.0, 4, 4096
	run := func() Result { return HybridPartition(rng.New(9), pts, w, r, maxGrids) }
	assertResultsEqual(t, atProcs(1, run), atProcs(8, run), "HybridPartition at GOMAXPROCS 8 vs 1")
}
