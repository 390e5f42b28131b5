// Package partition implements the three flat space-partitioning methods
// the paper builds on and contributes:
//
//   - Random shifted grid partitioning (Definition 1, Arora): points are
//     grouped by the hypercubic cell of one randomly shifted grid.
//   - Ball partitioning (Definition 2, Charikar et al.): balls of radius
//     w = ℓ/4 sit at the intersection points of a sequence of randomly
//     shifted grids of cell length ℓ; a point joins the first ball that
//     contains it. Points can remain uncovered, so grids are drawn until
//     everything is covered (or a cap U is hit and failure is reported —
//     exactly the failure mode Theorem 1 allows).
//   - Hybrid partitioning (Definition 3, the paper's contribution): the d
//     dimensions are split into r buckets, each bucket is ball-partitioned
//     independently at scale w, and two points share a hybrid part iff they
//     share a ball in every bucket.
//
// Each method produces an assignment of partition identifiers (compact
// string keys); identifiers are unique per (method instance, part). A flat
// partitioning is one level of the hierarchical embedding built in
// internal/core.
package partition

import (
	"fmt"
	"math"

	"mpctree/internal/grid"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// Uncovered is the identifier assigned to points no drawn ball contains.
// It never collides with a real part key (real keys are ≥ 8 bytes).
const Uncovered = ""

// Result is a flat partitioning of a point set: one identifier per point,
// plus bookkeeping used by the space accounting and coverage experiments.
type Result struct {
	IDs       []string // partition id per point; Uncovered for misses
	Uncovered int      // number of uncovered points
	GridsUsed int      // grids actually consulted (≤ the cap)
}

// OK reports whether every point was covered.
func (r Result) OK() bool { return r.Uncovered == 0 }

// Parts groups point indices by identifier (uncovered points excluded).
func (r Result) Parts() map[string][]int {
	m := make(map[string][]int)
	for i, id := range r.IDs {
		if id != Uncovered {
			m[id] = append(m[id], i)
		}
	}
	return m
}

// GridPartition computes a random shifted grid partitioning with scale w
// (Definition 1): one grid of cell width w, parts are non-empty cells.
// Every point is always covered.
func GridPartition(r *rng.RNG, pts []vec.Point, w float64) Result {
	if len(pts) == 0 {
		return Result{}
	}
	g := grid.New(r, len(pts[0]), w)
	ids := make([]string, len(pts))
	var scratch []int64
	for i, p := range pts {
		scratch = g.CellCoords(p, scratch)
		ids[i] = grid.Key(scratch)
	}
	return Result{IDs: ids, GridsUsed: 1}
}

// BallPartition computes a ball partitioning with scale w (Definition 2):
// cell length ℓ = 4w, ball radius w, grids drawn lazily until all points
// are covered or maxGrids attempts are exhausted. Remaining points get
// Uncovered ids and are counted in Result.Uncovered — the caller decides
// whether that constitutes failure (Algorithm 1 halts; experiments record
// the rate).
func BallPartition(r *rng.RNG, pts []vec.Point, w float64, maxGrids int) Result {
	if len(pts) == 0 {
		return Result{}
	}
	dim := len(pts[0])
	ids := make([]string, len(pts))
	remaining := len(pts)
	used := 0
	var scratch [16]int64
	for u := 0; u < maxGrids && remaining > 0; u++ {
		g := grid.New(r, dim, 4*w)
		used++
		for i, p := range pts {
			if ids[i] != Uncovered {
				continue
			}
			if idx, in := g.InBall(p, w, scratch[:0]); in {
				ids[i] = grid.KeyWithPrefix(uint64(u), idx)
				remaining--
			}
		}
	}
	return Result{IDs: ids, Uncovered: remaining, GridsUsed: used}
}

// HybridPartition computes an r-hybrid partitioning with scale w
// (Definition 3): dimensions are split into r buckets, each bucket's
// projected point set is ball-partitioned at scale w, and a point's hybrid
// id is the concatenation of its r bucket ball ids. Two points share a
// part iff they share a ball in every bucket. A point uncovered in any
// bucket is Uncovered.
//
// r must divide the dimension (use vec.PadPointsToMultiple first; padding
// with zeros changes no distance). r=1 degenerates to BallPartition. r=d
// ball-partitions each coordinate axis independently — intervals of length
// 2w with gaps, the paper's "grid partitioning with space between the
// hypercubes".
func HybridPartition(rnd *rng.RNG, pts []vec.Point, w float64, r, maxGrids int) Result {
	if len(pts) == 0 {
		return Result{}
	}
	d := len(pts[0])
	if r < 1 || r > d {
		panic(fmt.Sprintf("partition: r=%d out of [1, d=%d]", r, d))
	}
	if d%r != 0 {
		panic(fmt.Sprintf("partition: r=%d does not divide d=%d (pad first)", r, d))
	}
	ids := make([]string, len(pts))
	covered := make([]bool, len(pts))
	for i := range covered {
		covered[i] = true
	}
	totalGrids := 0
	proj := make([]vec.Point, len(pts))
	for j := 0; j < r; j++ {
		// Project onto bucket j. Bucket returns subslices; no copying.
		for i, p := range pts {
			proj[i] = vec.Bucket(p, j, r)
		}
		res := BallPartition(rnd, proj, w, maxGrids)
		totalGrids += res.GridsUsed
		for i := range pts {
			if !covered[i] {
				continue
			}
			if res.IDs[i] == Uncovered {
				covered[i] = false
				ids[i] = Uncovered
				continue
			}
			// Concatenate with a bucket tag so bucket boundaries cannot
			// ambiguously merge (ball keys are fixed-width per bucket, but
			// bucket dimensions are uniform so widths agree; the tag makes
			// the invariant independent of that).
			ids[i] += string([]byte{byte(j)}) + res.IDs[i]
		}
	}
	unc := 0
	for i := range ids {
		if ids[i] == Uncovered {
			unc++
		}
	}
	return Result{IDs: ids, Uncovered: unc, GridsUsed: totalGrids}
}

// UnitBallVolume returns vol(B^k), the volume of the k-dimensional
// Euclidean unit ball: π^{k/2} / Γ(k/2+1).
func UnitBallVolume(k int) float64 {
	return math.Pow(math.Pi, float64(k)/2) / math.Gamma(float64(k)/2+1)
}

// CoverProb returns the probability that one randomly shifted grid of
// balls (radius w, cell 4w) covers a fixed point in dimension k:
// vol(B^k_w)/(4w)^k = vol(B^k)/4^k. This is the per-point, per-grid
// success probability underlying Lemmas 6 and 7; it decays as
// 2^{-Θ(k log k)}, which is exactly why hybrid partitioning shrinks k to
// d/r.
func CoverProb(k int) float64 {
	return UnitBallVolume(k) / math.Pow(4, float64(k))
}

// MaxGridBound caps GridBound's return value: beyond it the count has no
// practical meaning (it already exceeds any machine memory by orders of
// magnitude) and converting the true value to int would overflow.
const MaxGridBound = 1 << 40

// GridBound returns the number of grids U sufficient to cover n points
// with probability ≥ 1-δ in dimension k: the failure probability of one
// point after U grids is (1-p)^U, so U = ln(n/δ)/p with p = CoverProb(k).
// This is the implementable counterpart of Lemma 7 (which covers all of
// space rather than the data and so carries the looser 2^{O(k log k)}
// constant); both are 2^{Θ(k log k)}·log(n/δ). Results are clamped to
// MaxGridBound.
func GridBound(k, n int, delta float64) int {
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("partition: delta=%v out of (0,1)", delta))
	}
	p := CoverProb(k)
	u := math.Log(float64(n)/delta) / p
	if !(u < MaxGridBound) { // also catches +Inf and NaN
		return MaxGridBound
	}
	return int(math.Ceil(u))
}

// HybridGridBound is GridBound applied per bucket and union-bounded over r
// buckets and L levels, matching Lemma 7's log(r·logΔ/δ) factor.
func HybridGridBound(k, n, r, levels int, delta float64) int {
	if r*levels < 1 {
		panic("partition: need at least one bucket and level")
	}
	return GridBound(k, n*r*levels, delta)
}

// Diameters returns, for each part with ≥ 2 points, the exact diameter of
// the part (max pairwise distance of its members). Used to validate
// Lemma 1's O(√r·w) diameter bound.
func Diameters(pts []vec.Point, res Result) map[string]float64 {
	out := make(map[string]float64)
	for id, members := range res.Parts() {
		if len(members) < 2 {
			continue
		}
		var diam float64
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if d := vec.Dist(pts[members[a]], pts[members[b]]); d > diam {
					diam = d
				}
			}
		}
		out[id] = diam
	}
	return out
}
