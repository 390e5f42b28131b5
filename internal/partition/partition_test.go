package partition

import (
	"math"
	"testing"

	"mpctree/internal/grid"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// uniformPts generates n uniform points in [0, width]^d.
func uniformPts(r *rng.RNG, n, d int, width float64) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.UniformRange(0, width)
		}
		pts[i] = p
	}
	return pts
}

func TestGridPartitionCoversAll(t *testing.T) {
	r := rng.New(1)
	pts := uniformPts(r, 500, 3, 100)
	res := GridPartition(r, pts, 10)
	if !res.OK() || res.Uncovered != 0 {
		t.Fatal("grid partitioning left points uncovered")
	}
	if res.GridsUsed != 1 {
		t.Errorf("GridsUsed = %d", res.GridsUsed)
	}
}

// Definition 1: two points in the same grid part differ by < w per
// coordinate; so part diameter ≤ w·√d.
func TestGridPartitionDiameter(t *testing.T) {
	r := rng.New(2)
	pts := uniformPts(r, 800, 3, 50)
	w := 7.0
	res := GridPartition(r, pts, w)
	bound := w * math.Sqrt(3)
	for id, diam := range Diameters(pts, res) {
		if diam > bound+1e-9 {
			t.Fatalf("grid part %q diameter %v > w·√d = %v", id, diam, bound)
		}
	}
}

func TestGridPartitionEmptyInput(t *testing.T) {
	r := rng.New(3)
	res := GridPartition(r, nil, 1)
	if len(res.IDs) != 0 || !res.OK() {
		t.Error("empty input should give empty OK result")
	}
}

func TestBallPartitionCoversWithEnoughGrids(t *testing.T) {
	r := rng.New(4)
	pts := uniformPts(r, 300, 2, 100)
	// In 2-D, per-grid cover prob is pi/16 ~ 0.196; 200 grids are plenty.
	res := BallPartition(r, pts, 5, 200)
	if !res.OK() {
		t.Fatalf("ball partitioning failed to cover: %d uncovered", res.Uncovered)
	}
	if res.GridsUsed > 200 {
		t.Errorf("GridsUsed = %d over cap", res.GridsUsed)
	}
}

func TestBallPartitionReportsFailure(t *testing.T) {
	r := rng.New(5)
	pts := uniformPts(r, 500, 4, 100)
	// One grid in 4-D covers only ~1.9% of space; with a single attempt
	// most points must remain uncovered — and the result must say so
	// rather than silently mis-assign (Theorem 1: "If the algorithm
	// fails, it reports failure").
	res := BallPartition(r, pts, 3, 1)
	if res.OK() {
		t.Fatal("expected coverage failure with one grid in 4-D")
	}
	unc := 0
	for _, id := range res.IDs {
		if id == Uncovered {
			unc++
		}
	}
	if unc != res.Uncovered {
		t.Errorf("Uncovered count %d disagrees with ids %d", res.Uncovered, unc)
	}
}

// Definition 2: each ball has radius w, so part diameter ≤ 2w.
func TestBallPartitionDiameter(t *testing.T) {
	r := rng.New(6)
	pts := uniformPts(r, 600, 2, 60)
	w := 4.0
	res := BallPartition(r, pts, w, 300)
	for id, diam := range Diameters(pts, res) {
		if diam > 2*w+1e-9 {
			t.Fatalf("ball part %q diameter %v > 2w = %v", id, diam, 2*w)
		}
	}
}

// First-grid-wins: a point covered by grid u must not be claimed by a
// later grid. We verify by checking ids are stable under extending the
// grid cap (same rng stream prefix property: rebuild with same seed).
func TestBallPartitionDeterministicFirstWins(t *testing.T) {
	pts := uniformPts(rng.New(7), 200, 2, 40)
	a := BallPartition(rng.New(42), pts, 3, 50)
	b := BallPartition(rng.New(42), pts, 3, 50)
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatal("ball partitioning not deterministic under same seed")
		}
	}
}

func TestHybridDegeneratesToBallWhenR1(t *testing.T) {
	pts := uniformPts(rng.New(8), 150, 2, 30)
	// Same seed ⇒ identical grid draws ⇒ identical grouping (ids differ
	// by the bucket tag prefix, so compare the induced partitions).
	hp := HybridPartition(rng.New(99), pts, 3, 1, 100)
	bp := BallPartition(rng.New(99), pts, 3, 100)
	if hp.Uncovered != bp.Uncovered {
		t.Fatalf("coverage differs: hybrid %d vs ball %d", hp.Uncovered, bp.Uncovered)
	}
	hParts := hp.Parts()
	bParts := bp.Parts()
	if len(hParts) != len(bParts) {
		t.Fatalf("part counts differ: %d vs %d", len(hParts), len(bParts))
	}
	// Induced equivalence must be identical.
	hID := hp.IDs
	bID := bp.IDs
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if (hID[i] == hID[j] && hID[i] != Uncovered) != (bID[i] == bID[j] && bID[i] != Uncovered) {
				t.Fatalf("pair (%d,%d) grouped differently under r=1 hybrid vs ball", i, j)
			}
		}
	}
}

// Definition 3: same hybrid part ⇒ same ball per bucket ⇒ per-bucket
// distance ≤ 2w ⇒ total distance ≤ 2w√r (Lemma 1's diameter bound).
func TestHybridDiameterBound(t *testing.T) {
	r := rng.New(9)
	for _, buckets := range []int{1, 2, 4} {
		pts := uniformPts(r, 400, 4, 50)
		w := 5.0
		res := HybridPartition(r, pts, w, buckets, 400)
		bound := 2 * w * math.Sqrt(float64(buckets))
		for id, diam := range Diameters(pts, res) {
			if diam > bound+1e-9 {
				t.Fatalf("r=%d: part %q diameter %v > 2w√r = %v", buckets, id, diam, bound)
			}
		}
	}
}

// Points in the same hybrid part must share the ball id in every bucket —
// cross-check by re-deriving bucket assignment agreement from id equality
// on freshly partitioned data.
func TestHybridJoinSemantics(t *testing.T) {
	r := rng.New(10)
	pts := uniformPts(r, 300, 6, 40)
	res := HybridPartition(r, pts, 6, 3, 500)
	if !res.OK() {
		t.Skip("coverage failed; adjust maxGrids")
	}
	// Same part ⇒ per-bucket distance ≤ 2w in *every* bucket.
	for _, members := range res.Parts() {
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				p, q := pts[members[a]], pts[members[b]]
				for j := 0; j < 3; j++ {
					if vec.Dist(vec.Bucket(p, j, 3), vec.Bucket(q, j, 3)) > 2*6+1e-9 {
						t.Fatal("same part but bucket distance exceeds ball diameter")
					}
				}
			}
		}
	}
}

func TestHybridPanicsOnBadR(t *testing.T) {
	pts := uniformPts(rng.New(11), 4, 4, 10)
	for _, bad := range []int{0, 5, 3} { // 3 does not divide 4
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("r=%d: expected panic", bad)
				}
			}()
			HybridPartition(rng.New(1), pts, 1, bad, 10)
		}()
	}
}

// Result.Grids replays exactly the grids a partitioning drew: assigning
// every point again with the replayed grids reproduces IDs, covered or
// not, and the replay leaves the caller's generator where it was.
func TestGridsReplayAssignment(t *testing.T) {
	pts := uniformPts(rng.New(12), 200, 4, 60)
	const w = 5.0
	firstBall := func(grids []grid.Grid, p vec.Point) string {
		for u, g := range grids {
			if idx, in := g.InBall(p, w, nil); in {
				return grid.KeyWithPrefix(uint64(u), idx)
			}
		}
		return Uncovered
	}
	cases := []struct {
		name   string
		run    func(*rng.RNG) Result
		assign func([][]grid.Grid, vec.Point) string
	}{
		{"grid", func(r *rng.RNG) Result { return GridPartition(r, pts, w) },
			func(g [][]grid.Grid, p vec.Point) string { return grid.Key(g[0][0].CellCoords(p, nil)) }},
		// Three grids in 4-D leave points uncovered: the replay must too.
		{"ball", func(r *rng.RNG) Result { return BallPartition(r, pts, w, 3) },
			func(g [][]grid.Grid, p vec.Point) string { return firstBall(g[0], p) }},
		{"hybrid", func(r *rng.RNG) Result { return HybridPartition(r, pts, w, 2, 400) },
			func(g [][]grid.Grid, p vec.Point) string {
				id := ""
				for j := range g {
					b := firstBall(g[j], vec.Bucket(p, j, 2))
					if b == Uncovered {
						return Uncovered
					}
					id += string([]byte{byte(j)}) + b
				}
				return id
			}},
	}
	for _, tc := range cases {
		rnd := rng.New(5)
		res := tc.run(rnd)
		after := *rnd
		grids := res.Grids()
		if *rnd != after {
			t.Fatalf("%s: Grids advanced the caller's generator", tc.name)
		}
		drawn := 0
		for _, bucket := range grids {
			drawn += len(bucket)
		}
		if drawn != res.GridsUsed {
			t.Fatalf("%s: Grids replayed %d grids, GridsUsed %d", tc.name, drawn, res.GridsUsed)
		}
		for i, p := range pts {
			if got := tc.assign(grids, p); got != res.IDs[i] {
				t.Fatalf("%s: point %d replays to %q, partition assigned %q", tc.name, i, got, res.IDs[i])
			}
		}
		if tc.name == "ball" && res.OK() {
			t.Errorf("ball: expected uncovered points with three grids")
		}
	}
}

func TestUnitBallVolume(t *testing.T) {
	cases := []struct {
		k    int
		want float64
	}{
		{1, 2}, {2, math.Pi}, {3, 4 * math.Pi / 3}, {4, math.Pi * math.Pi / 2},
	}
	for _, c := range cases {
		if got := UnitBallVolume(c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("vol(B^%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestCoverProbMatchesMonteCarlo(t *testing.T) {
	// Compare analytic CoverProb(2) with the measured coverage fraction.
	r := rng.New(12)
	pts := uniformPts(r, 100000, 2, 400)
	res := BallPartition(r, pts, 5, 1)
	gotFrac := 1 - float64(res.Uncovered)/float64(len(pts))
	want := CoverProb(2)
	if math.Abs(gotFrac-want) > 0.01 {
		t.Errorf("measured cover fraction %v vs analytic %v", gotFrac, want)
	}
}

// Lemma 6/7 shape: grids needed to cover grows superexponentially in k.
func TestGridBoundGrowth(t *testing.T) {
	prev := 0
	for k := 1; k <= 8; k++ {
		u := GridBound(k, 1000, 0.01)
		if u <= prev {
			t.Fatalf("GridBound not increasing at k=%d: %d <= %d", k, u, prev)
		}
		prev = u
	}
	// And empirically sufficient: with U = GridBound grids, coverage succeeds.
	r := rng.New(13)
	for _, k := range []int{2, 3} {
		pts := uniformPts(r, 500, k, 50)
		u := GridBound(k, 500, 0.01)
		res := BallPartition(r, pts, 4, u)
		if !res.OK() {
			t.Errorf("k=%d: GridBound=%d grids failed to cover (%d left)", k, u, res.Uncovered)
		}
	}
}

func TestHybridGridBound(t *testing.T) {
	// More buckets/levels ⇒ union bound over more events ⇒ weakly more grids.
	a := HybridGridBound(3, 1000, 1, 1, 0.01)
	b := HybridGridBound(3, 1000, 4, 20, 0.01)
	if b < a {
		t.Errorf("HybridGridBound decreased with more buckets/levels: %d < %d", b, a)
	}
}

func TestAutoR(t *testing.T) {
	if r := AutoR(2, 10); r != 1 {
		t.Errorf("AutoR(2) = %d", r)
	}
	// n = 2^16: log2 log2 = 4, r = 8 capped by d.
	if r := AutoR(1<<16, 20); r != 8 {
		t.Errorf("AutoR(2^16) = %d", r)
	}
	if r := AutoR(1<<16, 3); r != 3 {
		t.Errorf("AutoR capped = %d", r)
	}
}

func TestGridBoundPanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GridBound(2, 10, 0)
}

// Lemma 1 (separation probability): Pr[cut at scale w] ≤ C·√d·dist/w and is
// essentially independent of r. We measure the probability two points at a
// fixed distance are separated, for several r, and check both the bound
// shape and the r-independence.
func TestSeparationProbabilityLemma1(t *testing.T) {
	const (
		d      = 4
		delta  = 1.0 // pair distance
		w      = 8.0
		trials = 1500
	)
	base := rng.New(14)
	for _, r := range []int{1, 2, 4} {
		cut := 0
		covered := 0
		for trial := 0; trial < trials; trial++ {
			rr := base.Split()
			// A random pair at distance delta, placed randomly.
			p := make(vec.Point, d)
			dir := make(vec.Point, d)
			for i := range p {
				p[i] = rr.UniformRange(0, 100)
			}
			rr.UnitVector(dir)
			q := vec.Add(p, vec.Scale(delta, dir))
			res := HybridPartition(rr, []vec.Point{p, q}, w, r, 2000)
			if !res.OK() {
				continue
			}
			covered++
			if res.IDs[0] != res.IDs[1] {
				cut++
			}
		}
		if covered < trials/2 {
			t.Fatalf("r=%d: too many coverage failures", r)
		}
		prob := float64(cut) / float64(covered)
		bound := 4 * math.Sqrt(d) * delta / w // generous constant
		if prob > bound {
			t.Errorf("r=%d: separation prob %v exceeds O(√d·dist/w) = %v", r, prob, bound)
		}
	}
}

func BenchmarkBallPartition(b *testing.B) {
	r := rng.New(1)
	pts := uniformPts(r, 1000, 3, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BallPartition(r, pts, 5, 200)
	}
}

func BenchmarkHybridPartition(b *testing.B) {
	r := rng.New(1)
	pts := uniformPts(r, 1000, 8, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HybridPartition(r, pts, 5, 4, 200)
	}
}
