package core

import (
	"errors"
	"math"
	"testing"

	"mpctree/internal/partition"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// latticePts draws n distinct integer points in [1, delta]^d.
func latticePts(t testing.TB, seed uint64, n, d, delta int) []vec.Point {
	t.Helper()
	r := rng.New(seed)
	seen := map[string]bool{}
	pts := make([]vec.Point, 0, n)
	for len(pts) < n {
		p := make(vec.Point, d)
		key := ""
		for j := range p {
			v := 1 + r.Intn(delta)
			p[j] = float64(v)
			key += string(rune(v)) + ","
		}
		if !seen[key] {
			seen[key] = true
			pts = append(pts, p)
		}
	}
	return pts
}

func embedOrFail(t *testing.T, pts []vec.Point, opt Options) *Info {
	t.Helper()
	_, info, err := Embed(pts, opt)
	if err != nil {
		t.Fatalf("Embed(%v): %v", opt.Method, err)
	}
	return info
}

// Theorem 2 property 1 (and Theorem 1 property 1): domination.
// dist_T(p,q) ≥ ‖p−q‖ must hold deterministically for every method.
func TestDominationAllMethods(t *testing.T) {
	pts := latticePts(t, 1, 120, 4, 64)
	for _, m := range []Method{MethodHybrid, MethodGrid, MethodBall} {
		for seed := uint64(0); seed < 3; seed++ {
			tr, _, err := Embed(pts, Options{Method: m, R: 2, Seed: seed})
			if err != nil {
				t.Fatalf("%v seed %d: %v", m, seed, err)
			}
			for i := 0; i < len(pts); i++ {
				for j := i + 1; j < len(pts); j++ {
					td := tr.Dist(i, j)
					ed := vec.Dist(pts[i], pts[j])
					if td < ed-1e-9 {
						t.Fatalf("%v: domination violated for (%d,%d): tree %v < euclid %v", m, i, j, td, ed)
					}
				}
			}
		}
	}
}

// Theorem 2 property 2: expected distortion is bounded. We check the
// empirical mean over independent trees is within a generous constant of
// the √(d·r)·log₂Δ bound for hybrid, and √d·log₂Δ·... for grid.
func TestExpectedDistortionBounded(t *testing.T) {
	pts := latticePts(t, 2, 80, 4, 256)
	const trees = 30
	n := len(pts)
	sum := make([][]float64, n)
	for i := range sum {
		sum[i] = make([]float64, n)
	}
	for s := 0; s < trees; s++ {
		tr, _, err := Embed(pts, Options{Method: MethodHybrid, R: 2, Seed: uint64(s)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum[i][j] += tr.Dist(i, j)
			}
		}
	}
	var worst float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ratio := (sum[i][j] / trees) / vec.Dist(pts[i], pts[j])
			if ratio > worst {
				worst = ratio
			}
		}
	}
	// Bound: O(√(d·r)·logΔ) = √8·8 ≈ 22.6; constant slack 8.
	bound := 8 * math.Sqrt(4*2) * math.Log2(256)
	if worst > bound {
		t.Errorf("worst mean distortion %v exceeds loose bound %v", worst, bound)
	}
	if worst < 1 {
		t.Errorf("mean distortion %v below 1 — domination broken in expectation?!", worst)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	pts := latticePts(t, 3, 60, 4, 64)
	t1, _, err1 := Embed(pts, Options{Method: MethodHybrid, R: 2, Seed: 9})
	t2, _, err2 := Embed(pts, Options{Method: MethodHybrid, R: 2, Seed: 9})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if t1.NumNodes() != t2.NumNodes() {
		t.Fatal("same seed produced different trees")
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if t1.Dist(i, j) != t2.Dist(i, j) {
				t.Fatal("same seed produced different metrics")
			}
		}
	}
	t3, _, _ := Embed(pts, Options{Method: MethodHybrid, R: 2, Seed: 10})
	diff := false
	for i := 0; i < len(pts) && !diff; i++ {
		for j := i + 1; j < len(pts); j++ {
			if t1.Dist(i, j) != t3.Dist(i, j) {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical metrics (suspicious)")
	}
}

func TestEveryPointIsALeaf(t *testing.T) {
	pts := latticePts(t, 4, 100, 3, 128)
	for _, m := range []Method{MethodHybrid, MethodGrid, MethodBall} {
		tr, _, err := Embed(pts, Options{Method: m, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if tr.NumPoints() != len(pts) {
			t.Fatalf("%v: %d leaves for %d points", m, tr.NumPoints(), len(pts))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestCoverageFailureReported(t *testing.T) {
	pts := latticePts(t, 5, 200, 6, 64)
	// MaxGrids=1 in 6 dimensions with r=1: cover probability per grid is
	// ~0.2%, so failure is (overwhelmingly) certain — and must surface as
	// ErrCoverageFailure, not as a bogus tree.
	_, _, err := Embed(pts, Options{Method: MethodBall, MaxGrids: 1, Seed: 6})
	if !errors.Is(err, ErrCoverageFailure) {
		t.Fatalf("expected ErrCoverageFailure, got %v", err)
	}
}

func TestSinglePoint(t *testing.T) {
	tr, info, err := Embed([]vec.Point{{3, 4}}, Options{Method: MethodHybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPoints() != 1 || info.N != 1 {
		t.Error("single point embedding wrong")
	}
}

func TestDuplicatePointsRejected(t *testing.T) {
	_, _, err := Embed([]vec.Point{{1, 1}, {1, 1}}, Options{Method: MethodHybrid, Seed: 1})
	if err == nil {
		t.Fatal("duplicate points not rejected")
	}
}

func TestEmptyAndMalformedInputs(t *testing.T) {
	if _, _, err := Embed(nil, Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := Embed([]vec.Point{{}}, Options{}); err == nil {
		t.Error("zero-dim accepted")
	}
	if _, _, err := Embed([]vec.Point{{1, 2}, {1}}, Options{}); err == nil {
		t.Error("ragged dimensions accepted")
	}
	if _, _, err := Embed(latticePts(t, 6, 4, 4, 8), Options{Method: MethodHybrid, R: 7}); err == nil {
		t.Error("r > d accepted")
	}
	if _, _, err := Embed(latticePts(t, 6, 4, 4, 8), Options{Method: Method(42)}); err == nil {
		t.Error("unknown method accepted")
	}
}

// r must divide d after padding; a non-dividing r exercises the padding
// path and must still produce a valid dominating tree.
func TestPaddingPath(t *testing.T) {
	pts := latticePts(t, 7, 50, 5, 64) // d=5, r=2 ⇒ pad to 6
	tr, info, err := Embed(pts, Options{Method: MethodHybrid, R: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Dim != 6 {
		t.Errorf("padded dim = %d, want 6", info.Dim)
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if tr.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
				t.Fatal("domination violated on padded input")
			}
		}
	}
}

func TestInfoAccounting(t *testing.T) {
	pts := latticePts(t, 8, 80, 4, 128)
	info := embedOrFail(t, pts, Options{Method: MethodHybrid, R: 2, Seed: 3})
	if info.Levels < 3 {
		t.Errorf("suspiciously few levels: %d", info.Levels)
	}
	if len(info.GridsPerLevel) != info.Levels {
		t.Errorf("GridsPerLevel has %d entries for %d levels", len(info.GridsPerLevel), info.Levels)
	}
	if info.GridWords <= 0 {
		t.Error("GridWords not accounted")
	}
	for lev, g := range info.GridsPerLevel {
		if g < 2 { // at least one grid per bucket, 2 buckets
			t.Errorf("level %d used %d grids", lev, g)
		}
	}
}

// The ablation claim (Section 1.3.1): grid-partitioning trees use far
// fewer stored grids than ball-partitioning trees; hybrid sits between,
// with grid storage growing as r shrinks.
func TestGridStorageDecreasesWithR(t *testing.T) {
	pts := latticePts(t, 9, 150, 4, 64)
	words := map[int]int{}
	for _, r := range []int{1, 2, 4} {
		info := embedOrFail(t, pts, Options{Method: MethodHybrid, R: r, Seed: 4})
		words[r] = info.GridWords
	}
	if !(words[1] > words[2] && words[2] > words[4]) {
		t.Errorf("grid storage not decreasing in r: %v", words)
	}
}

// Tree distances between close pairs must shrink as the pair distance
// shrinks (scale sensitivity — the embedding is not collapsing levels).
func TestScaleSensitivity(t *testing.T) {
	pts := []vec.Point{{1, 1}, {3, 1}, {1000, 1000}, {1000, 996}}
	var closeSum, farSum float64
	const trees = 40
	for s := 0; s < trees; s++ {
		tr, _, err := Embed(pts, Options{Method: MethodHybrid, R: 1, Seed: uint64(s)})
		if err != nil {
			t.Fatal(err)
		}
		closeSum += tr.Dist(0, 1)
		farSum += tr.Dist(0, 2)
	}
	if closeSum/trees >= farSum/trees {
		t.Errorf("mean tree distance for close pair (%v) not below far pair (%v)", closeSum/trees, farSum/trees)
	}
}

func TestMethodString(t *testing.T) {
	if MethodHybrid.String() != "hybrid" || MethodGrid.String() != "grid" || MethodBall.String() != "ball" {
		t.Error("Method.String wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method string empty")
	}
}

func BenchmarkEmbedHybrid(b *testing.B) {
	pts := latticePts(b, 1, 500, 4, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Embed(pts, Options{Method: MethodHybrid, R: 2, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedGrid(b *testing.B) {
	pts := latticePts(b, 1, 500, 4, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Embed(pts, Options{Method: MethodGrid, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// An input whose aspect ratio needs more than partition.MaxLevels levels
// stops at MaxLevels, and every pair stays dominated. At seed 1 every
// method still holds the closest pair together after level 47, and the
// grid method after level 48 too: it force-splits the pair into leaves
// one level below.
func TestEmbedLevelCap(t *testing.T) {
	pts := []vec.Point{{0}, {0x1p-50}, {0.5}, {1}}
	forceSplit := false
	for _, m := range []Method{MethodGrid, MethodBall, MethodHybrid} {
		tr, info, err := Embed(pts, Options{Method: m, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if info.Levels != partition.MaxLevels {
			t.Errorf("%v: Levels = %d, want partition.MaxLevels = %d", m, info.Levels, partition.MaxLevels)
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if tr.Dist(i, j) < vec.Dist(pts[i], pts[j]) {
					t.Errorf("%v: dist_T(%d,%d) = %g < %g", m, i, j, tr.Dist(i, j), vec.Dist(pts[i], pts[j]))
				}
			}
		}
		if tr.MaxLevel() == partition.MaxLevels+1 {
			forceSplit = true
		}
	}
	if !forceSplit {
		t.Error("no method force-split below the last level")
	}
}
