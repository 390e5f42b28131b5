package hadamard

import (
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/rng"
)

// TestDistFWHTAllocCeiling pins the per-transform heap-object count on the
// BenchmarkDistFWHT layout (16 vectors × 256 dims, 8 machines). benchdiff
// can't gate allocs/op on 1-CPU CI (quick runs are too noisy for ns/op but
// alloc counts are exact), so churn creep on the hot path is caught here:
// the arena-backed rounds sit far below the ceiling, and any change that
// reintroduces per-element allocations blows through it immediately.
func TestDistFWHTAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	r := rng.New(1)
	const n, d, blockC = 16, 256, 16
	vecs := make([][]float64, n)
	for v := range vecs {
		vecs[v] = make([]float64, d)
		for i := range vecs[v] {
			vecs[v][i] = r.Normal()
		}
	}
	c := mpc.New(mpc.Config{Machines: 8, CapWords: 1 << 18})
	if err := DistributeVectors(c, vecs, d, blockC); err != nil {
		t.Fatal(err)
	}
	// Warm-up transform so cluster-internal buffers reach steady state.
	if err := DistFWHT(c, d, blockC, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := DistFWHT(c, d, blockC, 0); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~1.1k allocs/op arena-backed (was ~19k at the PR5 baseline
	// for the same layout). Ceiling leaves ~50% headroom for incidental
	// runtime variation without letting per-element churn back in (which
	// would cost ≥ 8k on this layout).
	const ceiling = 1700
	if allocs > ceiling {
		t.Fatalf("DistFWHT allocates %.0f objects/op, ceiling %d — hot-path churn regressed", allocs, ceiling)
	}
	t.Logf("DistFWHT allocs/op = %.0f (ceiling %d)", allocs, ceiling)
}
