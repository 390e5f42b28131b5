// Package core implements the paper's sequential tree-embedding algorithms:
// Algorithm 1 (hierarchical hybrid partitioning, Theorem 2) and the two
// methods it generalises — Arora's random shifted grid hierarchy and
// Charikar et al.'s ball-partitioning hierarchy — under one level-schedule
// framework, so that the distortion experiments compare exactly like with
// like.
//
// The hierarchy is built top-down, one pass per level. Level i partitions
// the points still sharing a cluster at scale w_i = Δ/2^i (Δ = the
// point-set diameter), with grids global per (level, bucket) as in
// Algorithm 2, and each cluster splits by its points' level-i ids, so the
// ids along a root path are Algorithm 2's path(p). Edges from level i−1
// to level i carry weight proportional to √r·w_i (the Lemma 1
// cluster-diameter bound), which yields the domination property
// dist_T ≥ ‖p−q‖₂ deterministically. The choice of r and the level
// schedule are partition.ChooseR and partition.Levels, which Algorithm 2
// (internal/mpcembed) shares.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mpctree/internal/grid"
	"mpctree/internal/hst"
	"mpctree/internal/partition"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// Method selects the flat partitioning used at every level.
type Method int

const (
	// MethodHybrid is Algorithm 1: r-bucket hybrid partitioning.
	MethodHybrid Method = iota
	// MethodGrid is Arora's random shifted grid (Definition 1).
	MethodGrid
	// MethodBall is ball partitioning (Definition 2) = hybrid with r=1.
	MethodBall
)

func (m Method) String() string {
	switch m {
	case MethodHybrid:
		return "hybrid"
	case MethodGrid:
		return "grid"
	case MethodBall:
		return "ball"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Options configures an embedding run. The zero value plus a Seed is a
// sensible hybrid-method default.
type Options struct {
	Method Method

	// R is the number of dimension buckets for MethodHybrid. 0 selects
	// the paper's r = Θ(log log n) (Section 4), raised by
	// partition.ChooseR until the Lemma 7 grid count is practical.
	// Ignored by other methods.
	R int

	// MaxGrids caps the ball-partitioning grid draws per (level, bucket).
	// 0 selects the Lemma 7 bound for failure probability FailProb.
	MaxGrids int

	// FailProb is the per-run coverage failure probability δ used to size
	// MaxGrids when MaxGrids is 0. 0 defaults to min(1e-4, 1/(n²+1)).
	FailProb float64

	// MinDist overrides the smallest pairwise distance used to size the
	// level count. 0 computes it exactly in O(n²) — fine for experiment
	// scales; callers with known lattices should pass 1.
	MinDist float64

	// Seed drives all randomness. Runs with equal options and seed are
	// bit-identical.
	Seed uint64
}

// Info reports what an embedding run did — the quantities the paper's
// space analysis (Lemma 8) is about.
type Info struct {
	Method        Method
	N             int     // points embedded
	Dim           int     // dimension after padding
	R             int     // buckets used
	Levels        int     // hierarchy levels (excluding the root)
	TopScale      float64 // w_1·2 = diameter used
	GridsPerLevel []int   // total grid draws summed over buckets, per level
	GridWords     int     // words of grid descriptors stored (local memory proxy)
	MaxGridsCap   int     // the per-(level,bucket) cap applied
}

// ErrCoverageFailure is returned when ball partitioning exhausts its grid
// budget with uncovered points, the failure mode Theorem 1 requires to be
// reported rather than papered over.
var ErrCoverageFailure = errors.New("core: ball partitioning failed to cover all points within the grid budget")

// ErrInfeasible is returned up front when the Lemma-7 grid count for the
// chosen (d, r) exceeds any practical budget — the 2^Θ((d/r)·log(d/r))
// blow-up that makes plain ball partitioning unusable and motivates
// hybridisation. Increase r to proceed.
var ErrInfeasible = errors.New("core: required grid count is astronomically large; increase r (hybridise)")

// maxPracticalGrids caps the per-(level,bucket) grid budget Embed will
// attempt when sizing automatically; beyond it the run would take
// effectively forever and is rejected with ErrInfeasible.
const maxPracticalGrids = 1 << 20

// Embed builds a tree embedding of pts with the selected method. Points
// must be distinct (use vec.Dedup first); dimension must be ≥ 1.
func Embed(pts []vec.Point, opt Options) (*hst.Tree, *Info, error) {
	h, info, err := build(pts, opt)
	if err != nil {
		return nil, info, err
	}
	return h.tree, info, nil
}

// hierarchy is one run of Algorithm 1: the tree, and what an Embedder
// needs to place new points in it.
type hierarchy struct {
	tree *hst.Tree
	pts  []vec.Point // working (padded) copy
	// parts[lev-1] is level lev's flat partition of the points still
	// sharing a cluster; its Shifts replay the level's grids.
	parts []partition.Result
	// childByID[v] maps a level id to the child of v holding that part;
	// repLeaf[v] is one data point in v's subtree.
	childByID []map[string]int
	repLeaf   []int
}

// build runs Algorithm 1 (Theorem 2): it validates pts, chooses r, pads
// so r divides d, fixes the level schedule and the Lemma-7 grid cap, then
// at each scale w_i = Δ/2^i partitions the points still sharing a
// cluster — Definition 1 for the grid method, Definition 3 otherwise
// (r = 1 is Definition 2) — and splits each cluster by its points' ids.
// Info comes back on success and with any error raised in or after the
// level loop.
func build(pts []vec.Point, opt Options) (*hierarchy, *Info, error) {
	n := len(pts)
	if n == 0 {
		return nil, nil, errors.New("core: empty point set")
	}
	d := len(pts[0])
	if d == 0 {
		return nil, nil, errors.New("core: zero-dimensional points")
	}
	for i, p := range pts {
		if len(p) != d {
			return nil, nil, fmt.Errorf("core: point %d has dimension %d, want %d", i, len(p), d)
		}
	}

	failProb := opt.FailProb
	if failProb == 0 {
		// δ = 1/(n²+1), capped at 1e-4: at small n the uncapped default
		// is loose enough that repeated experiment sweeps hit coverage
		// failures; the cap costs only a log factor in U.
		failProb = min(1e-4, 1/float64(n*n+1))
	}
	r := 1
	switch opt.Method {
	case MethodHybrid:
		r = opt.R
		if r == 0 {
			// The Lemma-7 count at MaxLevels levels must be practical; the
			// count at the actual level schedule, checked below, can only
			// be smaller.
			r = partition.ChooseR(n, d, func(r int) bool {
				return partition.HybridGridBound((d+r-1)/r, n, r, partition.MaxLevels, failProb) <= maxPracticalGrids
			})
		}
		if r < 1 || r > d {
			return nil, nil, fmt.Errorf("core: r=%d out of [1, d=%d]", r, d)
		}
	case MethodBall, MethodGrid:
	default:
		return nil, nil, fmt.Errorf("core: unknown method %v", opt.Method)
	}

	// Pad so r divides d (footnote 3 of the paper). Padding adds zero
	// coordinates and changes no distance.
	work := pts
	if opt.Method != MethodGrid && d%r != 0 {
		work = vec.PadPointsToMultiple(pts, r)
		d = len(work[0])
	}

	diam := vec.Bounds(work).Diameter()
	if diam == 0 {
		// All points identical; a root with one leaf per point at weight 0
		// is not a valid metric for n > 1. Reject, matching the distinct-
		// points requirement.
		if n > 1 {
			return nil, nil, errors.New("core: points are not distinct (diameter 0)")
		}
		b := hst.NewBuilder(1)
		b.AddLeaf(b.Root(), 0, 1, 0)
		h := &hierarchy{tree: b.Finish(), pts: work, childByID: []map[string]int{nil, nil}, repLeaf: []int{0, 0}}
		return h, &Info{Method: opt.Method, N: 1, Dim: d, R: r, TopScale: 0}, nil
	}

	minDist := opt.MinDist
	if minDist == 0 {
		minDist = vec.MinPairwiseDist(work)
		if math.IsInf(minDist, 1) {
			minDist = diam
		}
	}

	// The level-L cluster diameter bound is 2√r·w_L for the ball-based
	// methods and √d·w_L for the grid method; it also weighs the edges
	// into level L.
	var diamFactor float64
	if opt.Method == MethodGrid {
		diamFactor = math.Sqrt(float64(d))
	} else {
		diamFactor = 2 * math.Sqrt(float64(r))
	}
	levels := partition.Levels(diam, minDist, diamFactor)

	maxGrids := opt.MaxGrids
	if maxGrids == 0 && opt.Method != MethodGrid {
		maxGrids = partition.HybridGridBound(d/r, n, r, levels, failProb)
		if maxGrids > maxPracticalGrids {
			return nil, nil, fmt.Errorf("%w: Lemma-7 bound U=%d for k=%d dims/bucket (budget %d)",
				ErrInfeasible, maxGrids, d/r, maxPracticalGrids)
		}
	}

	info := &Info{
		Method:      opt.Method,
		N:           n,
		Dim:         d,
		R:           r,
		Levels:      levels,
		TopScale:    diam,
		MaxGridsCap: maxGrids,
	}

	bucketGridWords := grid.Grid{Dim: d / r}.Words() // descriptor of one d/r-dimensional grid
	rnd := rng.New(opt.Seed)
	b := hst.NewBuilder(n)
	h := &hierarchy{pts: work, childByID: []map[string]int{nil}, repLeaf: []int{0}}
	// addChild adds a child of parent at level lev for the part whose
	// first point is p: a leaf when p is alone in it, else a node.
	addChild := func(parent, lev int, weight float64, p int, leaf bool) int {
		h.childByID = append(h.childByID, nil)
		h.repLeaf = append(h.repLeaf, p)
		if leaf {
			return b.AddLeaf(parent, weight, lev, p)
		}
		return b.AddNode(parent, weight, lev)
	}

	// The frontier holds the clusters of several points, each with its
	// points in increasing index order, and active lists all of them in
	// increasing index order. Grids are global per (level, bucket), as in
	// Algorithm 2: a level partitions every active point at once, and each
	// cluster splits by its points' ids.
	type cluster struct {
		node   int
		points []int
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	// The root's points are a copy: active is rebuilt while the frontier
	// is read.
	frontier := []cluster{{node: b.Root(), points: slices.Clone(active)}}
	levID := make([]string, n) // levID[p] is p's id at the current level
	sub := make([]vec.Point, n)

	w := diam / 2
	for lev := 1; lev <= levels; lev++ {
		sub = sub[:len(active)]
		for i, p := range active {
			sub[i] = work[p]
		}
		var part partition.Result
		if opt.Method == MethodGrid {
			part = partition.GridPartition(rnd, sub, w)
		} else {
			part = partition.HybridPartition(rnd, sub, w, r, maxGrids)
			info.GridWords += part.GridsUsed * bucketGridWords
			if part.Uncovered > 0 {
				return nil, info, fmt.Errorf("%w (scale %g, %d uncovered)", ErrCoverageFailure, w, part.Uncovered)
			}
		}
		info.GridsPerLevel = append(info.GridsPerLevel, part.GridsUsed)
		h.parts = append(h.parts, part)
		for i, p := range active {
			levID[p] = part.IDs[i]
		}

		// Split each cluster by id, parts in first-seen order: a lone
		// point becomes a leaf, a larger part a node of the next frontier.
		// kids first maps each id to its part's index, then to the child
		// made for the part.
		weight := diamFactor * w
		var next []cluster
		active = active[:0]
		for _, c := range frontier {
			kids := make(map[string]int)
			var parts [][]int
			for _, p := range c.points {
				g, seen := kids[levID[p]]
				if !seen {
					g = len(parts)
					kids[levID[p]] = g
					parts = append(parts, nil)
				}
				parts[g] = append(parts[g], p)
			}
			for _, ps := range parts {
				v := addChild(c.node, lev, weight, ps[0], len(ps) == 1)
				kids[levID[ps[0]]] = v
				if len(ps) > 1 {
					next = append(next, cluster{node: v, points: ps})
					active = append(active, ps...)
				}
			}
			h.childByID[c.node] = kids
		}
		frontier = next
		slices.Sort(active)
		w /= 2
		if len(frontier) == 0 { // every cluster is a singleton: done
			info.Levels = lev
			break
		}
	}
	// A cluster still holding several points after the last level (an
	// input past MaxLevels, a MinDist above the true minimum, or a
	// floating-point boundary effect) is force-split into leaves one level
	// below, preserving domination.
	for _, c := range frontier {
		for _, p := range c.points {
			addChild(c.node, levels+1, diamFactor*w, p, true)
		}
	}
	h.tree = b.Finish()
	if err := h.tree.Validate(); err != nil {
		return nil, info, fmt.Errorf("core: built invalid tree: %v", err)
	}
	return h, info, nil
}
