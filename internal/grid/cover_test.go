package grid

import (
	"math"
	"slices"
	"testing"

	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// inBallLoop is FirstCover's definition: InBall on grid 0, 1, … of the
// packed set, stopping at the first hit.
func inBallLoop(p vec.Point, shifts []float64, cell, radius float64, scratch []int64) (int, []int64, bool) {
	k := len(p)
	for u := 0; u*k < len(shifts); u++ {
		g := Grid{Dim: k, Cell: cell, Shift: shifts[u*k : (u+1)*k]}
		if idx, in := g.InBall(p, radius, scratch); in {
			return u, idx, true
		}
	}
	return -1, nil, false
}

// checkCover fails t unless FirstCover returns what inBallLoop returns.
func checkCover(t *testing.T, what string, p vec.Point, shifts []float64, cell, radius float64) {
	t.Helper()
	var a, b [16]int64
	wu, widx, wok := inBallLoop(p, shifts, cell, radius, a[:0])
	gu, gidx, gok := FirstCover(p, shifts, cell, radius, b[:0])
	if gu != wu || gok != wok || !slices.Equal(gidx, widx) {
		t.Fatalf("%s: p %v cell %v radius %v shifts %v: FirstCover = (%d, %v, %v), InBall loop = (%d, %v, %v)",
			what, p, cell, radius, shifts, gu, gidx, gok, wu, widx, wok)
	}
}

// ulps moves x by n units in the last place (n < 0 moves down).
func ulps(x float64, n int) float64 {
	for ; n > 0; n-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; n < 0; n++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestFirstCoverMatchesInBall checks FirstCover against its definition
// on random sets at k ∈ {1, 2, 3, 8}, at Algorithm 2's radius (cell/4)
// and at random radii, and on constructed points where the fast path
// must defer to InBall: a quotient half a cell from a lattice point, a
// distance a few ulps from the radius, |q| near 2^20 and far beyond,
// points and shifts far from the origin, a radius of at least half a
// cell, cells whose squares under- or overflow, non-finite coordinates,
// and sets with no cover.
func TestFirstCoverMatchesInBall(t *testing.T) {
	r := rng.New(30)
	for _, k := range []int{1, 2, 3, 8} {
		for trial := 0; trial < 3000; trial++ {
			cell := math.Pow(2, r.UniformRange(-30, 30))
			u := 1 + r.Intn(40)
			shifts := make([]float64, u*k)
			for i := range shifts {
				shifts[i] = r.UniformRange(0, cell)
			}
			p := make(vec.Point, k)
			span := cell * math.Pow(2, r.UniformRange(0, 22))
			for i := range p {
				p[i] = r.UniformRange(-span, span)
			}
			radius := cell / 4
			if trial%3 == 1 {
				radius = r.UniformRange(0, cell)
			}
			checkCover(t, "random", p, shifts, cell, radius)
		}
	}

	for _, k := range []int{1, 2, 3, 8} {
		for trial := 0; trial < 200; trial++ {
			cell := math.Pow(2, r.UniformRange(-10, 10)) * (1 + r.Float64())
			// The constructed points sit near grid s, which set(s) places
			// after two random grids.
			s := make([]float64, k)
			others := make([]float64, 2*k)
			for i := range s {
				s[i] = r.UniformRange(0, cell)
			}
			for i := range others {
				others[i] = r.UniformRange(0, cell)
			}
			set := func(last []float64) []float64 { return append(slices.Clone(others), last...) }
			v := int64(r.Intn(2001) - 1000)
			for _, radius := range []float64{cell / 4, ulps(cell/2, -1), cell / 2, 0.6 * cell, 0} {
				for n := -4; n <= 4; n++ {
					// A quotient v + ½ ± n ulps on one axis, on the lattice
					// point elsewhere.
					p := make(vec.Point, k)
					for i := range p {
						p[i] = s[i] + float64(v)*cell
					}
					p[0] = ulps(s[0]+(float64(v)+0.5)*cell, n)
					checkCover(t, "half cell", p, set(s), cell, radius)
					// A distance of radius ± n ulps, along one axis and
					// along the diagonal.
					p[0] = ulps(s[0]+float64(v)*cell+radius, n)
					checkCover(t, "radius on an axis", p, set(s), cell, radius)
					for i := range p {
						p[i] = ulps(s[i]+float64(v)*cell+radius/math.Sqrt(float64(k)), n)
					}
					checkCover(t, "radius on the diagonal", p, set(s), cell, radius)
				}
			}
			// |q| around 2^20, with x inside and outside the bound.
			for _, q := range []float64{0x1p20, -0x1p20, 0x1p20 - 0.25, -0x1p20 + 0.25, 0x1p21, 0x1p19 + 0.1} {
				for n := -4; n <= 4; n++ {
					p := make(vec.Point, k)
					for i := range p {
						p[i] = ulps(s[i]+q*cell, n)
					}
					checkCover(t, "large q", p, set(s), cell, cell/4)
				}
			}
			// |q| from 2^20 up to past int64's range, with x near the
			// origin and the grids' shifts far from it.
			for _, q := range []float64{0x1p20, -0x1p20, 0x1p40 + 0.3, 0x1p60, -0x1p62, 0x1p70} {
				for n := -4; n <= 4; n++ {
					q := ulps(q, n)
					p := make(vec.Point, k)
					far := make([]float64, 0, 2*k)
					for i := range p {
						p[i] = s[i] + 0.1*cell
						far = append(far, p[i]-q*cell)
					}
					far = append(far, s...)
					checkCover(t, "far shift", p, far, cell, cell/4)
				}
			}
			// x and the shifts both far from the origin, near each other.
			for _, e := range []int{19, 20, 21, 40, 60} {
				for n := -4; n <= 4; n++ {
					p := make(vec.Point, k)
					far := make([]float64, k)
					for i := range p {
						far[i] = ulps(math.Ldexp(cell, e)+s[i], n)
						p[i] = far[i] + (float64(v)+0.1*float64(i+1))*cell
					}
					checkCover(t, "far point", p, far, cell, cell/4)
				}
			}
			// Cells whose squared distances leave the normal range.
			for _, c := range []float64{0x1p-600, 0x1p-400, 0x1p-300, 0x1p300, 0x1p400, 0x1p500, 0x1p1000} {
				for _, off := range []float64{0.1, 0.2, 0.3, 0.45} {
					p := make(vec.Point, k)
					near := make([]float64, k)
					for i := range p {
						near[i] = s[i] / cell * c
						p[i] = near[i] + (float64(v%64)+off)*c
					}
					checkCover(t, "extreme cell", p, near, c, c/4)
				}
			}
			// Non-finite coordinates, cells and radii.
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				p := make(vec.Point, k)
				copy(p, s)
				p[k-1] = bad
				checkCover(t, "non-finite coordinate", p, set(s), cell, cell/4)
				copy(p, s)
				checkCover(t, "non-finite radius", p, set(s), cell, bad)
				checkCover(t, "non-finite cell", p, set(s), bad, cell/4)
			}
			// No cover: the point sits at a cell center of the set's one
			// grid, half a cell from a lattice point on every axis.
			p := make(vec.Point, k)
			for i := range p {
				p[i] = s[i] + (float64(v)+0.5)*cell
			}
			checkCover(t, "no cover", p, s, cell, cell/4)
			if _, _, ok := FirstCover(p, s, cell, cell/4, nil); ok {
				t.Fatalf("k=%d: a point at a cell center is covered", k)
			}
		}
	}
}

// FuzzFirstCover checks FirstCover against its definition on sets of
// 1–8 grids in k = 1–3: the first grid's shift and the point come from
// the fuzzer as they are, the other shifts are drawn in [0, |cell|).
func FuzzFirstCover(f *testing.F) {
	f.Add(0.3, 1.7, -2.2, 0.1, 0.2, 0.3, 1.0, 0.25, uint64(1), uint8(1))
	f.Add(0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 1.0, 0.25, uint64(2), uint8(2))
	f.Add(0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.25, uint64(3), uint8(0))
	f.Add(1048576.0, 3.0, 1.0, 0.0, 0.5, 0.5, 1.0, 0.25, uint64(4), uint8(5))
	f.Add(math.Inf(1), 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.25, uint64(5), uint8(1))
	f.Add(0.4, 0.1, 0.2, 0.3, 0.0, 0.1, 2.0, 1.0, uint64(6), uint8(24))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-300, 2.5e-301, uint64(7), uint8(2))
	f.Fuzz(func(t *testing.T, x0, x1, x2, s0, s1, s2, cell, radius float64, seed uint64, shape uint8) {
		k := 1 + int(shape%3)
		grids := 1 + int(shape/3)%8
		p := vec.Point{x0, x1, x2}[:k]
		shifts := append(make([]float64, 0, grids*k), s0, s1, s2)[:k]
		r := rng.New(seed)
		for len(shifts) < grids*k {
			shifts = append(shifts, r.UniformRange(0, math.Abs(cell)))
		}
		checkCover(t, "fuzz", p, shifts, cell, radius)
	})
}

// BenchmarkFirstCover times the first-cover search at Algorithm 2's
// shape on build-highdim: k = 2, U = 104 grids per set, radius cell/4
// (a grid covers a point with probability π/16). One op is 256
// searches, so even a one-iteration run (benchdiff -quick) reads more
// than the timer; points and sets cycle through tables that fit in
// cache. inball_loop is the InBall loop FirstCover replaces.
func BenchmarkFirstCover(b *testing.B) {
	const k, u, nSets, nPts, perOp = 2, 104, 64, 1024, 256
	r := rng.New(1)
	cell := 3.0
	sets := make([][]float64, nSets)
	for s := range sets {
		sets[s] = make([]float64, u*k)
		for i := range sets[s] {
			sets[s][i] = r.UniformRange(0, cell)
		}
	}
	pts := make([]vec.Point, nPts)
	for i := range pts {
		pts[i] = vec.Point{r.UniformRange(-1000, 1000), r.UniformRange(-1000, 1000)}
	}
	for _, bc := range []struct {
		name string
		fn   func(vec.Point, []float64, float64, float64, []int64) (int, []int64, bool)
	}{
		{"first_cover", FirstCover},
		{"inball_loop", inBallLoop},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var scratch [k]int64
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := i * perOp; j < (i+1)*perOp; j++ {
					if _, _, ok := bc.fn(pts[j%nPts], sets[j%nSets], cell, cell/4, scratch[:0]); ok {
						hits++
					}
				}
			}
			if hits < b.N*perOp*9/10 {
				b.Fatalf("%d of %d searches hit; U = %d grids should cover nearly all", hits, b.N*perOp, u)
			}
		})
	}
}
