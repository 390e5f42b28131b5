package hadamard

import (
	"runtime"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/rng"
)

// TestDistFWHTAllocCeiling pins the per-transform heap-object count and
// allocated bytes on the BenchmarkDistFWHT layout (16 vectors × 256 dims,
// 8 machines). benchdiff can't gate allocations on 1-CPU CI (quick runs
// are too noisy for ns/op but allocation counts are exact), so churn
// creep on the hot path is caught here: any change that reintroduces
// per-element records blows through both ceilings immediately.
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
	// Tiles cost ~0.9k objects/op on this layout. The ceiling leaves
	// headroom for incidental runtime variation without letting
	// per-element churn back in (which would cost ≥ 8k).
	const ceiling = 1700
	if allocs > ceiling {
		t.Fatalf("DistFWHT allocates %.0f objects/op, ceiling %d — hot-path churn regressed", allocs, ceiling)
	}
	t.Logf("DistFWHT allocs/op = %.0f (ceiling %d)", allocs, ceiling)

	// Bytes, measured the way TestBroadcastAllocCeiling measures them.
	// Tiles cost ~8× the payload per transform; element records, one
	// header, Ints and Data per element and transpose, cost ~43×.
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := DistFWHT(c, d, blockC, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	payload := float64(n * d * 8)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / runs / payload
	const bytesCeiling = 12
	if ratio > bytesCeiling {
		t.Fatalf("DistFWHT allocates %.2f× the payload's bytes per transform, ceiling %d×", ratio, bytesCeiling)
	}
	t.Logf("DistFWHT allocates %.2f× the payload's bytes per transform (ceiling %d×)", ratio, bytesCeiling)
}
