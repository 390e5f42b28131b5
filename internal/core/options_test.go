package core

import (
	"testing"

	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// Real-valued, negative-coordinate inputs (the post-FJLT regime) must
// embed correctly when MinDist is supplied: grids are shift-invariant,
// nothing assumes the positive orthant.
func TestEmbedNegativeRealCoordinates(t *testing.T) {
	r := rng.New(51)
	pts := make([]vec.Point, 60)
	for i := range pts {
		p := make(vec.Point, 4)
		for j := range p {
			p[j] = r.UniformRange(-500, 500)
		}
		pts[i] = p
	}
	pts = vec.Dedup(pts)
	tr, _, err := Embed(pts, Options{Method: MethodHybrid, R: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if tr.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
				t.Fatal("domination violated on negative coordinates")
			}
		}
	}
}

func TestEmbedMinDistOverride(t *testing.T) {
	pts := latticePts(t, 53, 40, 3, 64)
	// Claiming a larger min distance prunes deep levels. Domination can
	// then fail for the very closest pairs IF the claim is false; with a
	// truthful claim (1, the lattice spacing) all is well and the level
	// count matches the auto-computed run.
	a, ia, err := Embed(pts, Options{Method: MethodHybrid, R: 1, Seed: 7, MinDist: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, ib, err := Embed(pts, Options{Method: MethodHybrid, R: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ia.Levels > ib.Levels {
		t.Errorf("claimed MinDist=1 gave MORE levels (%d) than exact (%d)", ia.Levels, ib.Levels)
	}
	_ = a
	_ = b
}

func TestEmbedBallIgnoresR(t *testing.T) {
	pts := latticePts(t, 55, 30, 4, 64)
	_, info, err := Embed(pts, Options{Method: MethodBall, R: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if info.R != 1 {
		t.Errorf("ball method used r=%d", info.R)
	}
}

func TestEmbedCustomFailProb(t *testing.T) {
	pts := latticePts(t, 56, 40, 4, 64)
	// A large δ shrinks the Lemma-7 cap; the run either succeeds or
	// reports coverage failure — never silently mis-partitions.
	tr, _, err := Embed(pts, Options{Method: MethodHybrid, R: 2, Seed: 10, FailProb: 0.4})
	if err != nil {
		t.Logf("large-δ run reported: %v", err)
		return
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if tr.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
				t.Fatal("domination violated")
			}
		}
	}
}

// Two distinct points only — the smallest non-trivial embedding.
func TestEmbedTwoPoints(t *testing.T) {
	pts := []vec.Point{{1, 1}, {60, 60}}
	for _, m := range []Method{MethodHybrid, MethodGrid, MethodBall} {
		tr, _, err := Embed(pts, Options{Method: m, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if tr.Dist(0, 1) < vec.Dist(pts[0], pts[1]) {
			t.Fatalf("%v: domination violated for the pair", m)
		}
	}
}

// Collinear points on one axis exercise the degenerate bounding box
// (zero extent in most dimensions).
func TestEmbedCollinear(t *testing.T) {
	var pts []vec.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, vec.Point{float64(1 + i*7), 5, 5})
	}
	tr, _, err := Embed(pts, Options{Method: MethodHybrid, R: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if tr.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
				t.Fatal("domination violated on collinear data")
			}
		}
	}
}
