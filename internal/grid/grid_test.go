package grid

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

func TestShiftInRange(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		g := New(r, 3, 2.5)
		for _, s := range g.Shift {
			if s < 0 || s >= 2.5 {
				t.Fatalf("shift %v out of [0, cell)", s)
			}
		}
	}
}

func TestNewPanics(t *testing.T) {
	r := rng.New(1)
	for _, f := range []func(){
		func() { New(r, 0, 1) },
		func() { New(r, 2, 0) },
		func() { New(r, 2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCellCoordsIdentifyCells(t *testing.T) {
	g := Grid{Dim: 2, Cell: 1, Shift: vec.Point{0.5, 0.5}}
	// Points in the same cell share coordinates; across a boundary they differ.
	a := g.CellCoords(vec.Point{0.6, 0.6}, nil)
	b := g.CellCoords(vec.Point{1.4, 1.4}, nil)
	c := g.CellCoords(vec.Point{1.6, 0.6}, nil)
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("same cell got different coords: %v vs %v", a, b)
	}
	if c[0] == a[0] {
		t.Errorf("boundary crossing not detected: %v vs %v", a, c)
	}
}

// Property: two points are in the same cell iff floor agreement holds per
// coordinate — equivalently, a point and the cell's reconstructed corner
// are within [0, cell) offsets.
func TestCellContainsItsPoints(t *testing.T) {
	r := rng.New(2)
	check := func(_ uint32) bool {
		g := New(r, 4, r.UniformRange(0.1, 5))
		p := make(vec.Point, 4)
		for i := range p {
			p[i] = r.UniformRange(-20, 20)
		}
		idx := g.CellCoords(p, nil)
		for i, v := range idx {
			lo := g.Shift[i] + float64(v)*g.Cell
			if p[i] < lo-1e-9 || p[i] >= lo+g.Cell+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCenterIndexNearest(t *testing.T) {
	r := rng.New(3)
	// The returned lattice point must be at least as close as 3^d-neighborhood
	// alternatives.
	for trial := 0; trial < 200; trial++ {
		g := New(r, 3, r.UniformRange(0.5, 3))
		p := make(vec.Point, 3)
		for i := range p {
			p[i] = r.UniformRange(-10, 10)
		}
		idx := g.CenterIndex(p, nil)
		best := g.DistToCenter(p, idx)
		alt := make([]int64, 3)
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for dz := int64(-1); dz <= 1; dz++ {
					alt[0], alt[1], alt[2] = idx[0]+dx, idx[1]+dy, idx[2]+dz
					if g.DistToCenter(p, alt) < best-1e-9 {
						t.Fatalf("CenterIndex not nearest: %v beats %v", alt, idx)
					}
				}
			}
		}
	}
}

func TestInBall(t *testing.T) {
	g := Grid{Dim: 2, Cell: 4, Shift: vec.Point{0, 0}}
	// Ball radius 1 (= cell/4) around lattice points 4Z^2.
	if _, ok := g.InBall(vec.Point{0.5, 0.5}, 1, nil); !ok {
		t.Error("point at distance ~0.707 should be in radius-1 ball")
	}
	if _, ok := g.InBall(vec.Point{2, 2}, 1, nil); ok {
		t.Error("cell center (distance 2.83 from lattice) should be outside")
	}
	idx, ok := g.InBall(vec.Point{4.3, 7.9}, 1, nil)
	if !ok || idx[0] != 1 || idx[1] != 2 {
		t.Errorf("InBall = %v, %v", idx, ok)
	}
}

// InBall's one pass must agree with CenterIndex and DistToCenter to the
// bit: the same index, and the same verdict at the reference distance and
// one ulp below it, where a distance one ulp off would flip one of them.
func TestInBallMatchesCenterIndexAndDistToCenter(t *testing.T) {
	r := rng.New(9)
	var scratch [32]int64
	for trial := 0; trial < 5000; trial++ {
		dim := 1 + r.Intn(20)
		cell := r.UniformRange(0.01, 1000)
		g := NewInto(r, make(vec.Point, dim), cell)
		p := make(vec.Point, dim)
		for i := range p {
			p[i] = r.UniformRange(-5000, 5000)
		}
		ref := g.CenterIndex(p, nil)
		dist := g.DistToCenter(p, ref)
		for _, radius := range []float64{dist, math.Nextafter(dist, 0), r.UniformRange(0, 2*dist)} {
			idx, in := g.InBall(p, radius, scratch[:0])
			if in != (dist <= radius) {
				t.Fatalf("dim %d cell %v radius %v: InBall says %v, reference distance %v", dim, cell, radius, in, dist)
			}
			if !slices.Equal(idx, ref) {
				t.Fatalf("dim %d cell %v: index %v, CenterIndex %v", dim, cell, idx, ref)
			}
		}
	}
}

// Geometric sanity for Definition 2: with radius w = cell/4, the fraction
// of the cell covered by balls is vol(B^d_w)/cell^d; in 2-D with cell=4,
// w=1 this is pi/16 ~ 0.196.
func TestBallCoverageFraction2D(t *testing.T) {
	r := rng.New(5)
	g := New(r, 2, 4)
	const n = 200000
	in := 0
	p := make(vec.Point, 2)
	var scratch []int64
	for i := 0; i < n; i++ {
		p[0] = r.UniformRange(0, 40)
		p[1] = r.UniformRange(0, 40)
		if _, ok := g.InBall(p, 1, scratch); ok {
			in++
		}
	}
	got := float64(in) / n
	want := math.Pi / 16
	if math.Abs(got-want) > 0.01 {
		t.Errorf("coverage fraction = %v, want %v", got, want)
	}
}

func TestKeysDistinct(t *testing.T) {
	a := Key([]int64{1, 2})
	b := Key([]int64{2, 1})
	c := Key([]int64{1, 2})
	if a == b {
		t.Error("distinct indices produced same key")
	}
	if a != c {
		t.Error("equal indices produced different keys")
	}
	// Negative values must not collide with positive ones.
	if Key([]int64{-1}) == Key([]int64{1}) {
		t.Error("sign collision in keys")
	}
	if KeyWithPrefix(1, []int64{5}) == KeyWithPrefix(2, []int64{5}) {
		t.Error("prefix ignored in KeyWithPrefix")
	}
}

func TestWords(t *testing.T) {
	g := Grid{Dim: 7, Cell: 1, Shift: make(vec.Point, 7)}
	if g.Words() != 9 {
		t.Errorf("Words = %d", g.Words())
	}
}

func BenchmarkCenterIndex(b *testing.B) {
	r := rng.New(1)
	g := New(r, 16, 2)
	p := make(vec.Point, 16)
	for i := range p {
		p[i] = r.UniformRange(0, 100)
	}
	scratch := make([]int64, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = g.CenterIndex(p, scratch)
	}
}
