// Dynamic programming on tree embeddings — the application hook of
// Section 1.3.3: "storing data on trees provides a unique structure for
// data computation … efficient low-memory MPC and AMPC algorithms for
// solving dynamic programs on trees". Two DPs serve the query layer:
// CutAtScale (a flat clustering at a scale) and MedoidLeaf (the 1-median
// leaf). Both read state a finished tree derives once: CutAtScale scans
// the preorder against the diameter bounds stored in the same order, and
// MedoidLeaf returns the medoid computed at finish time by one bottom-up
// and one top-down pass.
package hst

import "math"

// CutAtScale cuts the hierarchy at the coarsest frontier whose clusters
// all have subtree-diameter bound ≤ maxDiam, returning a cluster label
// per data point. This is the "flat clustering at a scale" read of a
// hierarchical embedding: labels are contiguous ints from 0, numbered in
// preorder.
//
// One forward scan of the preorder visits the nodes above the frontier,
// labels each admitted subtree's points as one cluster and jumps past it:
// O(nodes above the frontier + points), on any tree. The scan reads only
// arrays laid out in preorder (subtree ends, point ranges, diameter
// bounds), so it walks them front to back and never indexes by node.
//
// Non-positive and NaN scales are normalised to 0, which admits only
// zero-diameter frontiers — every point becomes its own singleton
// cluster. Callers that consider a non-positive scale a user error
// (cmd/treequery, the /v1/cut endpoint) must validate before calling.
func (t *Tree) CutAtScale(maxDiam float64) []int {
	if maxDiam < 0 || math.IsNaN(maxDiam) {
		maxDiam = 0
	}
	labels := make([]int, t.NumPoints())
	next := 0
	for i := 0; i < len(t.pre); {
		e := t.pre[i]
		if t.preDiam[i] <= maxDiam {
			for _, p := range t.prePoints[e.ptLo:e.ptHi] {
				labels[p] = next
			}
			next++
			i = int(e.end)
			continue
		}
		// A point node above the frontier (a leaf with children, in
		// exotic trees) is a cluster of its own. Its point leads its
		// range, ahead of the first child's.
		i++
		childLo := e.ptHi
		if i < int(e.end) {
			childLo = t.pre[i].ptLo
		}
		if e.ptLo < childLo {
			labels[t.prePoints[e.ptLo]] = next
			next++
		}
	}
	return labels
}

// MedoidLeaf returns the data point minimising the sum of tree distances
// to all other points — the 1-median of the tree metric. It is a constant
// of the tree, derived when the tree is finished (and again by
// ScaleWeights), so the call costs nothing.
func (t *Tree) MedoidLeaf() (point int, totalDist float64) {
	return t.medoid, t.medoidDist
}

// twoPassMedoid computes MedoidLeaf's answer exactly in two passes
// (O(n) after preprocessing) rather than O(n²) pairwise.
func (t *Tree) twoPassMedoid() (point int, totalDist float64) {
	n := len(t.Nodes)
	// below[v]: (#leaves in subtree, Σ distance from v to those leaves).
	type agg struct {
		cnt int
		sum float64
	}
	below := make([]agg, n)
	for v := n - 1; v >= 0; v-- {
		nd := &t.Nodes[v]
		if nd.Point >= 0 {
			below[v] = agg{cnt: 1}
		}
		for _, c := range nd.Children {
			below[v].cnt += below[c].cnt
			below[v].sum += below[c].sum + float64(below[c].cnt)*t.Nodes[c].Weight
		}
	}
	total := t.NumPoints()
	// above[v]: Σ distance from v to all leaves OUTSIDE v's subtree.
	above := make([]float64, n)
	for v := 1; v < n; v++ {
		p := t.Nodes[v].Parent
		w := t.Nodes[v].Weight
		outCnt := total - below[v].cnt
		// Leaves outside v: reachable through p. Distance = w + their
		// distance to p. Their distance to p = (above[p] + below[p].sum −
		// (below[v].sum + cnt(v)·w)).
		distToP := above[p] + below[p].sum - (below[v].sum + float64(below[v].cnt)*w)
		above[v] = distToP + float64(outCnt)*w
	}
	point, best := -1, 0.0
	for pt, leaf := range t.Leaf {
		d := below[leaf].sum + above[leaf]
		if point == -1 || d < best {
			point, best = pt, d
		}
	}
	return point, best
}
