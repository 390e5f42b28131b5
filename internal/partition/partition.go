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

	// The recipe Shifts replays: the generator as it stood before the
	// first draw, the grids drawn in each bucket, and their shape.
	start rng.RNG
	drawn []int
	dim   int
	cell  float64
}

// Shifts re-draws the grids the partitioning consulted, in draw order,
// packed the way grid.FirstCover reads them: Shifts()[j] holds bucket
// j's grids (one bucket for the grid and ball methods), grid u's shift
// at [u·k, (u+1)·k) for bucket dimension k. A partitioning draws nothing
// but grids from its generator, so replaying them from a copy of its
// starting state is exact; the caller's generator is left untouched.
// Only an index that places new points needs the grids, so a Result
// does not keep them.
func (r Result) Shifts() [][]float64 {
	rnd := r.start
	shifts := make([]float64, r.GridsUsed*r.dim)
	out := make([][]float64, len(r.drawn))
	for j, u := range r.drawn {
		out[j], shifts = shifts[:u*r.dim:u*r.dim], shifts[u*r.dim:]
		for g := 0; g < u; g++ {
			grid.NewInto(&rnd, out[j][g*r.dim:(g+1)*r.dim], r.cell)
		}
	}
	return out
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
	start := *r
	g := grid.New(r, len(pts[0]), w)
	ids := make([]string, len(pts))
	var scratch []int64
	for i, p := range pts {
		scratch = g.CellCoords(p, scratch)
		ids[i] = grid.Key(scratch)
	}
	return Result{IDs: ids, GridsUsed: 1, start: start, drawn: []int{1}, dim: g.Dim, cell: w}
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
	start := *r
	ids := make([]string, len(pts))
	remaining, used := ballIDs(r, pts, w, maxGrids, ids)
	return Result{IDs: ids, Uncovered: remaining, GridsUsed: used,
		start: start, drawn: []int{used}, dim: len(pts[0]), cell: 4 * w}
}

// ballIDs is BallPartition without the replay recipe: it writes the ids
// into ids, which must arrive all Uncovered, and returns the number of
// points left uncovered and the number of grids drawn.
func ballIDs(r *rng.RNG, pts []vec.Point, w float64, maxGrids int, ids []string) (remaining, used int) {
	dim := len(pts[0])
	ids = ids[:len(pts)] // lets the compiler drop the bounds check on ids[i]
	remaining = len(pts)
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
	return remaining, used
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
	n := len(pts)
	start := *rnd
	drawn := make([]int, r)
	totalGrids := 0
	// bucketIDs[j*n+i] is point i's ball id in bucket j.
	bucketIDs := make([]string, r*n)
	proj := make([]vec.Point, n)
	for j := range drawn {
		// Project onto bucket j. Bucket returns subslices; no copying.
		for i, p := range pts {
			proj[i] = vec.Bucket(p, j, r)
		}
		_, drawn[j] = ballIDs(rnd, proj, w, maxGrids, bucketIDs[j*n:(j+1)*n])
		totalGrids += drawn[j]
	}
	// Join each point's bucket ids into one string, each behind a bucket
	// tag so bucket boundaries cannot ambiguously merge (ball keys are
	// fixed-width per bucket, but bucket dimensions are uniform so widths
	// agree; the tag makes the invariant independent of that). A ball key
	// is 8 bytes of grid index plus 8 per coordinate, so the buffer is
	// sized for a covered point up front.
	ids := make([]string, n)
	unc := 0
	buf := make([]byte, 0, r*9+8*d)
points:
	for i := range pts {
		buf = buf[:0]
		for j := range drawn {
			id := bucketIDs[j*n+i]
			if id == Uncovered {
				unc++
				continue points
			}
			buf = append(buf, byte(j))
			buf = append(buf, id...)
		}
		ids[i] = string(buf)
	}
	return Result{IDs: ids, Uncovered: unc, GridsUsed: totalGrids,
		start: start, drawn: drawn, dim: d / r, cell: 4 * w}
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

// AutoR returns the paper's bucket count r = Θ(log log n) (Section 4),
// at least 1 and at most d. ChooseR starts from it.
func AutoR(n, d int) int {
	if n < 4 {
		return 1
	}
	r := int(math.Round(2 * math.Log2(math.Log2(float64(n)))))
	if r < 1 {
		r = 1
	}
	if r > d {
		r = d
	}
	return r
}

// ChooseR returns the bucket count both embeddings use when the caller
// sets none: the smallest r from AutoR(n, d) up whose grids fit, or d if
// no r below d fits. Each embedding passes its own fit test: Algorithm 1
// a practical Lemma-7 count, Algorithm 2 one machine's memory (Lemma 8).
// Larger r costs √r distortion but shrinks the bucket dimension d/r and
// with it the 2^Θ(k log k) grid count: the paper's grid↔ball trade-off.
func ChooseR(n, d int, fits func(r int) bool) int {
	r := AutoR(n, d)
	for r < d && !fits(r) {
		r++
	}
	return r
}

// MaxLevels caps the level schedule of both embeddings. On an input that
// needs more levels (an aspect ratio of about 2^MaxLevels or more), the
// points still sharing a cluster at the last level become sibling leaves
// one level below it.
const MaxLevels = 48

// Levels returns the level count L of the schedule w_i = diam/2^i,
// i = 1..L, shared by both embeddings: the first level whose cluster
// diameter bound diamFactor·w_L is below minDist, so that distinct points
// no longer share a cluster, or MaxLevels if that comes first.
func Levels(diam, minDist, diamFactor float64) int {
	levels := 1
	for w := diam / 2; diamFactor*w >= minDist && levels < MaxLevels; w /= 2 {
		levels++
	}
	return levels
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
