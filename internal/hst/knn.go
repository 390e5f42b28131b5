// K-nearest-neighbor queries under the tree metric — the read-path
// primitive the serving layer's /v1/knn endpoint exposes. A tree has
// unique paths, so every other point q is reached from the query point
// p's leaf by climbing to their lowest common ancestor a and descending
// from it: the points whose paths turn at a are the points of a's
// subtree outside the child the climb came up from — a ring. The query
// climbs p's ancestors, offers each ring to a bounded heap of the k best
// so far, and stops at the first ancestor farther than the k-th best.
// It reads only what Builder.Finish derives (preorder point ranges,
// level weights, children lists) and keeps its heap in the result slice,
// so it is safe for any number of concurrent callers.
package hst

import "fmt"

// Neighbor is one result of a k-nearest-neighbor query.
type Neighbor struct {
	Point int     `json:"point"`
	Dist  float64 `json:"dist"`
}

// before orders KNN's bounded max-heap: a pops first when it is the
// farther of the two, by (distance, point index), so the heap's top is
// the k-th best neighbor found so far.
func (a Neighbor) before(b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Point > b.Point
}

// KNN returns the k data points nearest to point p under the tree metric,
// excluding p itself, ordered by (distance, point index). Ties at the
// k-th distance are broken by point index, so the result is a pure
// function of the tree and the arguments. k larger than the number of
// other points returns all of them; k ≤ 0 returns nil. It panics if p is
// out of range (mirroring Dist); HTTP callers validate first.
//
// A distance is the sum of the edge weights along the path from p's leaf
// up to the ancestor and down to the other point, added in that order.
// On a level-uniform tree (see Tree.levelWeights) a ring's points are
// all at one distance, so a ring costs one scan of its preorder range:
// O(h² + r log k) for height h and r points in the rings up to the k-th
// distance. On any other tree each ring is descended depth-first,
// skipping every subtree that starts farther than the k-th best:
// O(h + m log k) for m nodes within that distance.
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
	best := make([]Neighbor, 0, k)
	v, from := t.Leaf[p], -1
	var d float64 // distance from p's leaf up to v
	for {
		if len(best) == k && d > best[0].Dist {
			break
		}
		if t.levelW != nil {
			// Points sit only on childless nodes at the bottom depth,
			// so p's leaf has no ring, and every point of an ancestor's
			// ring lies below one weight per depth.
			if from >= 0 {
				r := d
				for _, w := range t.levelW[t.depth[v]+1:] {
					r += w
				}
				if len(best) == k && r > best[0].Dist {
					break // each farther ring is at least as far
				}
				e, c := t.pre[t.pos[v]], t.pre[t.pos[from]]
				best = offerRing(best, k, t.prePoints[e.ptLo:c.ptLo], r)
				best = offerRing(best, k, t.prePoints[c.ptHi:e.ptHi], r)
			}
		} else {
			nd := &t.Nodes[v]
			if q := nd.Point; q >= 0 && q != p {
				best = offer(best, k, Neighbor{Point: q, Dist: d})
			}
			for _, c := range nd.Children {
				if c != from {
					best = t.offerSubtree(best, k, c, d+t.Nodes[c].Weight)
				}
			}
		}
		if v == 0 {
			break
		}
		d += t.Nodes[v].Weight
		v, from = t.Nodes[v].Parent, v
	}
	// Sort in place: each pop moves the farthest left to the end.
	for end := len(best) - 1; end > 0; end-- {
		best[0], best[end] = best[end], best[0]
		heapDown(best[:end], 0)
	}
	return best
}

// offer puts x into best, a max-heap of at most k neighbors, if it is
// among the k nearest offered so far.
func offer(best []Neighbor, k int, x Neighbor) []Neighbor {
	if len(best) < k {
		return heapPush(best, x)
	}
	if best[0].before(x) {
		best[0] = x
		heapDown(best, 0)
	}
	return best
}

// offerRing offers every point of ring at distance r.
func offerRing(best []Neighbor, k int, ring []int32, r float64) []Neighbor {
	for _, q := range ring {
		best = offer(best, k, Neighbor{Point: int(q), Dist: r})
	}
	return best
}

// offerSubtree offers the points of v's subtree, v at distance d, and
// skips every subtree that starts farther than the k-th best.
func (t *Tree) offerSubtree(best []Neighbor, k, v int, d float64) []Neighbor {
	if len(best) == k && d > best[0].Dist {
		return best
	}
	nd := &t.Nodes[v]
	if nd.Point >= 0 {
		best = offer(best, k, Neighbor{Point: nd.Point, Dist: d})
	}
	for _, c := range nd.Children {
		best = t.offerSubtree(best, k, c, d+t.Nodes[c].Weight)
	}
	return best
}
