// K-nearest-neighbor queries under the tree metric — the read-path
// primitive the serving layer's /v1/knn endpoint exposes. A tree has
// unique paths, so a best-first (uniform-cost) traversal outward from the
// query point's leaf reaches every node once, along the one path from
// the leaf, and pops it at its exact tree distance; leaves are collected
// until the k-th distance is sealed. The traversal reads only what
// Builder.Finish derives (root-path weights, children lists) and keeps
// its frontier in a per-call heap, so it is safe for any number of
// concurrent callers.
package hst

import (
	"cmp"
	"fmt"
	"slices"
)

// Neighbor is one result of a k-nearest-neighbor query.
type Neighbor struct {
	Point int     `json:"point"`
	Dist  float64 `json:"dist"`
}

// visit is one frontier entry of the best-first traversal: a node, its
// distance from the query leaf, and the neighbor it was reached from
// (-1 for the query leaf), which is the one neighbor not to expand.
type visit struct {
	dist       float64
	node, from int32
}

// before orders the frontier by (distance, arena index); every node
// enters the frontier at most once, so the order is strict and the pop
// order — which equal-distance nodes are explored first — deterministic.
func (a visit) before(b visit) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}

// KNN returns the k data points nearest to point p under the tree metric,
// excluding p itself, ordered by (distance, point index). Ties at the
// k-th distance are broken by point index, so the result is a pure
// function of the tree and the arguments. k larger than the number of
// other points returns all of them; k ≤ 0 returns nil. It panics if p is
// out of range (mirroring Dist); HTTP callers validate first.
//
// The traversal expands the unique tree paths outward from p's leaf
// through parent and child edges, visiting every node whose distance is
// at most the k-th nearest leaf distance — O((k + h + m) log n) for
// answer set k, height h, and m nodes inside the final radius.
func (t *Tree) KNN(p, k int) []Neighbor {
	if p < 0 || p >= t.NumPoints() {
		panic(fmt.Sprintf("hst: KNN point %d out of range [0,%d)", p, t.NumPoints()))
	}
	if k <= 0 {
		return nil
	}
	if max := t.NumPoints() - 1; k > max {
		k = max
	}
	if k == 0 {
		return nil
	}
	frontier := append(make([]visit, 0, 32), visit{node: int32(t.Leaf[p]), from: -1})

	// Collect every leaf with distance ≤ the current k-th best; the
	// frontier pops in non-decreasing distance, so once the popped
	// distance exceeds that bound the answer set is sealed.
	found := make([]Neighbor, 0, k)
	for len(frontier) > 0 {
		var v visit
		v, frontier = heapPop(frontier)
		if len(found) >= k && v.dist > found[k-1].Dist {
			break
		}
		nd := &t.Nodes[v.node]
		if nd.Point >= 0 && nd.Point != p {
			// Pops arrive in non-decreasing distance, so append order is
			// sorted by distance and found[k-1] is the k-th best so far.
			found = append(found, Neighbor{Point: nd.Point, Dist: v.dist})
		}
		if nd.Parent >= 0 && int32(nd.Parent) != v.from {
			frontier = heapPush(frontier, visit{dist: v.dist + nd.Weight, node: int32(nd.Parent), from: v.node})
		}
		for _, c := range nd.Children {
			if int32(c) != v.from {
				frontier = heapPush(frontier, visit{dist: v.dist + t.Nodes[c].Weight, node: int32(c), from: v.node})
			}
		}
	}
	// found is sorted by distance with pop-order (arena index) tie-breaks;
	// re-sort equal distances by point index and cut at k, keeping every
	// point strictly closer than the k-th and the smallest-indexed ties.
	slices.SortFunc(found, func(a, b Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Point, b.Point)
	})
	if len(found) > k {
		found = found[:k]
	}
	return found
}
