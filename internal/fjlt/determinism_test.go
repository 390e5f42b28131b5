package fjlt

import (
	"math"
	"runtime"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/vec"
)

// Bit-identity of every entry point at GOMAXPROCS 1 and 8, with point
// counts the fan-out width does not divide. Run under -race in CI, this
// also proves the fan-outs are data-race free.

func assertPointsBitIdentical(t *testing.T, want, got []vec.Point, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d points", label, len(want), len(got))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(want[i][j]) != math.Float64bits(got[i][j]) {
				t.Fatalf("%s: point %d coord %d differs: %v vs %v", label, i, j, want[i][j], got[i][j])
			}
		}
	}
}

func TestApplyAllWorkerInvariant(t *testing.T) {
	pts := randPts(21, 33, 40)
	run := func(procs int) []vec.Point {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr, err := New(len(pts), 40, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return tr.ApplyAll(pts)
	}
	assertPointsBitIdentical(t, run(1), run(8), "Transform.ApplyAll")
}

func TestDenseJLApplyAllWorkerInvariant(t *testing.T) {
	pts := randPts(23, 25, 48)
	run := func(procs int) []vec.Point {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr, err := NewDenseJL(len(pts), 48, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return tr.ApplyAll(pts)
	}
	assertPointsBitIdentical(t, run(1), run(8), "DenseJL.ApplyAll")
}

func TestApplyMPCWorkerInvariant(t *testing.T) {
	pts := randPts(29, 19, 24)
	p, err := NewParams(len(pts), 24, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) []vec.Point {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 22})
		out, err := ApplyMPC(c, pts, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	assertPointsBitIdentical(t, run(1), run(8), "ApplyMPC")
}

func TestMaxPairwiseDistortionWorkerInvariant(t *testing.T) {
	orig := randPts(31, 21, 16)
	run := func(procs int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr, err := New(len(orig), 16, Options{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		return MaxPairwiseDistortion(orig, tr.ApplyAll(orig))
	}
	if want, got := run(1), run(8); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MaxPairwiseDistortion at GOMAXPROCS=8 = %v, at 1 = %v", got, want)
	}
}
