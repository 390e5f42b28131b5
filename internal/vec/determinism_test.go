package vec

import (
	"math"
	"runtime"
	"testing"

	"mpctree/internal/rng"
)

// The reductions must be bit-identical at any GOMAXPROCS — including
// float extrema over pairwise distances, where the fanned-out minimum's
// shard boundaries must not leak into the result.

// atProcs runs f at the given GOMAXPROCS.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func normalPts(seed uint64, n, d int) []Point {
	r := rng.New(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = make(Point, d)
		for j := range pts[i] {
			pts[i][j] = r.Normal() * 100
		}
	}
	return pts
}

func TestBoundsWorkerInvariant(t *testing.T) {
	pts := normalPts(51, 37, 6)
	var want, got BoundingBox
	atProcs(1, func() { want = Bounds(pts) })
	atProcs(8, func() { got = Bounds(pts) })
	for j := range want.Lo {
		if math.Float64bits(got.Lo[j]) != math.Float64bits(want.Lo[j]) ||
			math.Float64bits(got.Hi[j]) != math.Float64bits(want.Hi[j]) {
			t.Fatalf("Bounds dim %d: [%v,%v] at GOMAXPROCS 8 vs [%v,%v] at 1",
				j, got.Lo[j], got.Hi[j], want.Lo[j], want.Hi[j])
		}
		for _, p := range pts {
			if p[j] < want.Lo[j] || p[j] > want.Hi[j] {
				t.Fatalf("Bounds dim %d: point coordinate %v outside [%v,%v]", j, p[j], want.Lo[j], want.Hi[j])
			}
		}
	}
}

func TestPairwiseExtremaWorkerInvariant(t *testing.T) {
	pts := normalPts(53, 41, 5)
	type extrema struct{ min, max float64 }
	measure := func(procs int) (e extrema) {
		atProcs(procs, func() { e = extrema{MinPairwiseDist(pts), MaxPairwiseDist(pts)} })
		return e
	}
	want, got := measure(1), measure(8)
	for _, c := range []struct {
		name      string
		want, got float64
	}{{"MinPairwiseDist", want.min, got.min}, {"MaxPairwiseDist", want.max, got.max}} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s at GOMAXPROCS 8 = %v, at 1 = %v", c.name, c.got, c.want)
		}
	}
}

func TestParVariantsDegenerateInputs(t *testing.T) {
	for _, procs := range []int{1, 8} {
		atProcs(procs, func() {
			if d := MinPairwiseDist(nil); !math.IsInf(d, 1) {
				t.Fatalf("GOMAXPROCS=%d: MinPairwiseDist(nil) = %v, want +Inf (fold identity)", procs, d)
			}
			one := []Point{{1, 2}}
			if d := MaxPairwiseDist(one); d != 0 {
				t.Fatalf("GOMAXPROCS=%d: MaxPairwiseDist(single) = %v", procs, d)
			}
			if d := Bounds(one).Diameter(); d != 0 {
				t.Fatalf("GOMAXPROCS=%d: Bounds(single).Diameter() = %v", procs, d)
			}
		})
	}
}
