package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mpctree/internal/grid"
	"mpctree/internal/hst"
	"mpctree/internal/partition"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// oracleMaxLevels is the level cap oracleBuild's schedule had.
const oracleMaxLevels = 64

// oracleBuild is Algorithm 1's build as it was when it grouped every
// level twice: chain keys (clusterKey) find the points still sharing a
// cluster, then oracleTreeNav regroups the per-level ids into nodes. It
// keeps its own r loop and level schedule, capped at 64 levels. build
// must return the same tree, Info, parts and navigation maps for any
// input that needs at most partition.MaxLevels levels.
func oracleBuild(pts []vec.Point, opt Options) (*hierarchy, *Info, error) {
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
		// 1/n² with a 1e-4 floor: at small n the pure 1/n² default is
		// loose enough that repeated experiment sweeps hit coverage
		// failures; the floor costs only a log factor in U.
		failProb = min(1e-4, 1/float64(n*n+1))
	}
	r := 1
	switch opt.Method {
	case MethodHybrid:
		r = opt.R
		if r == 0 {
			// Auto-select: start at the paper's Θ(log log n) and escalate
			// until the Lemma-7 grid count per bucket is practical —
			// mirroring the MPC implementation's Lemma-8-driven choice.
			// Uses a conservative 48-level estimate; the exact bound is
			// re-checked (and can only be smaller) once levels are known.
			for r = partition.AutoR(n, d); r < d; r++ {
				if partition.HybridGridBound((d+r-1)/r, n, r, 48, failProb) <= maxPracticalGrids {
					break
				}
			}
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

	// Level schedule: w_i = diam/2^i for i = 1..L, with L chosen so that
	// the level-L cluster diameter bound (2√r·w_L for ball-based methods,
	// √d·w_L for the grid method) is below the minimum distance — then
	// every surviving cluster is a singleton.
	var diamFactor float64
	if opt.Method == MethodGrid {
		diamFactor = math.Sqrt(float64(d))
	} else {
		diamFactor = 2 * math.Sqrt(float64(r))
	}
	levels := 1
	for w := diam / 2; diamFactor*w >= minDist && levels < oracleMaxLevels; w /= 2 {
		levels++
	}

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
	h := &hierarchy{pts: work}
	// ids[i] holds the level-i flat partition identifier per point.
	ids := make([][]string, levels+1)
	// active lists the points whose cluster still holds others; a point
	// leaves once its cluster is a singleton (its subtree is finished).
	// Grids are global per (level, bucket), not per cluster, as in
	// Algorithm 2: clusters are refined implicitly by the chain keys.
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	sub := make([]vec.Point, n)

	// clusterKey[p] accumulates the chain of level ids — the path(p)
	// encoding. Points share a level-i cluster iff keys are equal.
	clusterKey := make([]string, n)

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
		levIDs := make([]string, n)
		for i, p := range active {
			levIDs[p] = part.IDs[i]
		}
		ids[lev] = levIDs

		// Extend chains and count cluster sizes; singletons leave.
		size := make(map[string]int, len(active))
		for _, p := range active {
			clusterKey[p] = clusterKey[p] + oracleLevelTag(lev) + levIDs[p]
			size[clusterKey[p]]++
		}
		still := active[:0]
		for _, p := range active {
			if size[clusterKey[p]] > 1 {
				still = append(still, p)
			}
		}
		active = still
		w /= 2
		// Once every cluster is a singleton the hierarchy is complete;
		// later levels would partition nothing.
		if len(active) == 0 {
			info.Levels = lev
			levels = lev
			break
		}
	}

	var err error
	h.tree, h.childByID, h.repLeaf, err = oracleTreeNav(work, ids, levels, diam, diamFactor)
	if err != nil {
		return nil, info, err
	}
	return h, info, nil
}

// oracleLevelTag returns a one-byte separator making chain keys prefix-free
// across levels.
func oracleLevelTag(lev int) string { return string([]byte{byte(lev)}) }

// oracleTreeNav converts per-level flat ids into the weighted tree, plus
// the navigation structures the Embedder uses for out-of-sample queries:
// childByID[v] maps a level-id to the child of v holding that part, and
// repLeaf[v] is one data point living in v's subtree. Edge weight into
// level i is diamFactor·w_i (w_i = diam/2^i); a cluster that becomes a
// singleton at level i is emitted as a leaf at level i and not refined
// further.
func oracleTreeNav(pts []vec.Point, ids [][]string, levels int, diam, diamFactor float64) (*hst.Tree, []map[string]int, []int, error) {
	n := len(pts)
	b := hst.NewBuilder(n)
	childByID := []map[string]int{nil} // grows with the arena
	repLeaf := []int{-1}

	addNode := func(parent int, weight float64, lev, rep int) int {
		id := b.AddNode(parent, weight, lev)
		childByID = append(childByID, nil)
		repLeaf = append(repLeaf, rep)
		return id
	}
	addLeaf := func(parent int, weight float64, lev, p int) int {
		id := b.AddLeaf(parent, weight, lev, p)
		childByID = append(childByID, nil)
		repLeaf = append(repLeaf, p)
		return id
	}
	link := func(parent int, id string, child int) {
		if childByID[parent] == nil {
			childByID[parent] = make(map[string]int)
		}
		childByID[parent][id] = child
	}

	type clus struct {
		node   int
		points []int
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	repLeaf[0] = 0
	frontier := []clus{{node: b.Root(), points: all}}
	w := diam / 2
	for lev := 1; lev <= levels && len(frontier) > 0; lev++ {
		weight := diamFactor * w
		var next []clus
		for _, c := range frontier {
			if len(c.points) == 1 {
				p := c.points[0]
				leaf := addLeaf(c.node, weight, lev, p)
				if id := ids[lev][p]; id != "" {
					link(c.node, id, leaf)
				}
				continue
			}
			groups := make(map[string][]int)
			var order []string
			for _, p := range c.points {
				id := ids[lev][p]
				if _, seen := groups[id]; !seen {
					order = append(order, id)
				}
				groups[id] = append(groups[id], p)
			}
			for _, id := range order {
				g := groups[id]
				if len(g) == 1 {
					leaf := addLeaf(c.node, weight, lev, g[0])
					link(c.node, id, leaf)
					continue
				}
				child := addNode(c.node, weight, lev, g[0])
				link(c.node, id, child)
				next = append(next, clus{node: child, points: g})
			}
		}
		frontier = next
		w /= 2
	}
	// Any cluster still holding several points after the last level (only
	// possible through floating-point boundary effects) is force-split
	// into leaves one level below, preserving domination.
	weight := diamFactor * w
	for _, c := range frontier {
		for _, p := range c.points {
			addLeaf(c.node, weight, levels+1, p)
		}
	}
	t := b.Finish()
	if err := t.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("core: built invalid tree: %v", err)
	}
	return t, childByID, repLeaf, nil
}

// TestBuildMatchesOracle pins the one-pass build to oracleBuild: tree
// bytes, Info, each level's partition and the Embedder's navigation maps
// (childByID, repLeaf) agree for every method, an explicit and an
// automatic r, a d that r does not divide, and n = 2, collinear,
// clustered and uniform inputs under several seeds.
func TestBuildMatchesOracle(t *testing.T) {
	collinear := make([]vec.Point, 20)
	for i := range collinear {
		collinear[i] = vec.Point{float64(1 + i*7), 5, 5}
	}
	inputs := []struct {
		name string
		pts  []vec.Point
	}{
		{"two", []vec.Point{{1, 1}, {60, 60}}},
		{"collinear", collinear},
		{"clustered", workload.GaussianClusters(3, 120, 6, 4, 3, 256)},
		{"uniform", latticePts(t, 1, 80, 4, 128)},
		{"uniform-d5", latticePts(t, 7, 60, 5, 64)},
	}
	opts := []Options{
		{Method: MethodGrid},
		{Method: MethodBall},
		{Method: MethodHybrid, R: 2},
		{Method: MethodHybrid},
	}
	for _, in := range inputs {
		for _, opt := range opts {
			for _, seed := range []uint64{1, 2, 42} {
				opt.Seed = seed
				name := fmt.Sprintf("%s/%v/R=%d/seed=%d", in.name, opt.Method, opt.R, seed)
				got, gotInfo, gotErr := build(in.pts, opt)
				want, wantInfo, wantErr := oracleBuild(in.pts, opt)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(gotInfo, wantInfo) {
					t.Fatalf("%s: Info = %+v, oracle %+v", name, gotInfo, wantInfo)
				}
				if gotErr != nil {
					continue
				}
				if string(treeBytes(t, got.tree)) != string(treeBytes(t, want.tree)) {
					t.Fatalf("%s: tree differs from the oracle's", name)
				}
				if !reflect.DeepEqual(got.parts, want.parts) {
					t.Fatalf("%s: level partitions differ from the oracle's", name)
				}
				if !reflect.DeepEqual(got.childByID, want.childByID) {
					t.Fatalf("%s: childByID differs from the oracle's", name)
				}
				if !reflect.DeepEqual(got.repLeaf, want.repLeaf) {
					t.Fatalf("%s: repLeaf = %v, oracle %v", name, got.repLeaf, want.repLeaf)
				}
			}
		}
	}
}
