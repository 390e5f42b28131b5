package hadamard

import (
	"math"
	"runtime"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/rng"
)

// The reproducibility contract: output is bit-identical at any
// GOMAXPROCS, asserted under -race by the CI.

func randBatch(seed uint64, n, d int) [][]float64 {
	r := rng.New(seed)
	xs := make([][]float64, n)
	for v := range xs {
		xs[v] = make([]float64, d)
		for i := range xs[v] {
			xs[v][i] = r.Normal()
		}
	}
	return xs
}

func cloneBatch(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = append([]float64(nil), x...)
	}
	return out
}

func assertBatchBitIdentical(t *testing.T, want, got [][]float64, label string) {
	t.Helper()
	for v := range want {
		for i := range want[v] {
			if math.Float64bits(want[v][i]) != math.Float64bits(got[v][i]) {
				t.Fatalf("%s: vector %d entry %d differs: %v vs %v", label, v, i, want[v][i], got[v][i])
			}
		}
	}
}

// DistFWHT must emit byte-identical records (and therefore produce
// byte-identical collected vectors) at any GOMAXPROCS, and match the
// sequential transform.
func TestDistFWHTWorkerInvariant(t *testing.T) {
	const n, d, blockC, machines = 7, 64, 8, 4
	base := randBatch(17, n, d)

	run := func(procs int) [][]float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := mpc.New(mpc.Config{Machines: machines, CapWords: 1 << 18})
		if err := DistributeVectors(c, cloneBatch(base), d, blockC); err != nil {
			t.Fatal(err)
		}
		if err := DistFWHT(c, d, blockC, 0); err != nil {
			t.Fatal(err)
		}
		got, err := CollectVectors(c, n, d, blockC)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	ref := run(1)
	assertBatchBitIdentical(t, ref, run(8), "DistFWHT")
	for v, x := range cloneBatch(base) {
		Normalized(x)
		for i := range x {
			if math.Abs(ref[v][i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				t.Fatalf("vector %d entry %d: DistFWHT %v, Normalized %v", v, i, ref[v][i], x[i])
			}
		}
	}
}
