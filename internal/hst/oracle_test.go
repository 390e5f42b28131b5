package hst

import (
	"container/heap"
	"math"
	"slices"
	"sort"
	"testing"

	"mpctree/internal/rng"
)

// The oracles below are the query kernels as they were before the tree
// derived their state once: each recomputes everything from the node
// arena on every call. The derived-state kernels must match them bit for
// bit — same labels, same points, same float64 bits.

// oracleDiameterBounds recomputes SubtreeLeafDiameterBound from the
// root-path weights.
func oracleDiameterBounds(t *Tree) []float64 {
	maxUp := make([]float64, len(t.Nodes))
	for v := range maxUp {
		maxUp[v] = t.RootPathWeight(v)
	}
	for v := len(t.Nodes) - 1; v > 0; v-- {
		p := t.Nodes[v].Parent
		if maxUp[v] > maxUp[p] {
			maxUp[p] = maxUp[v]
		}
	}
	out := make([]float64, len(t.Nodes))
	for v := range out {
		out[v] = 2 * (maxUp[v] - t.RootPathWeight(v))
	}
	return out
}

// oracleCut is the recursive top-down CutAtScale.
func oracleCut(t *Tree, maxDiam float64) []int {
	if maxDiam < 0 || math.IsNaN(maxDiam) {
		maxDiam = 0
	}
	bounds := oracleDiameterBounds(t)
	labels := make([]int, t.NumPoints())
	next := 0
	var walk func(v int, label int)
	walk = func(v int, label int) {
		if t.Nodes[v].Point >= 0 {
			labels[t.Nodes[v].Point] = label
		}
		for _, c := range t.Nodes[v].Children {
			walk(c, label)
		}
	}
	var descend func(v int)
	descend = func(v int) {
		if bounds[v] <= maxDiam {
			walk(v, next)
			next++
			return
		}
		if t.Nodes[v].Point >= 0 {
			labels[t.Nodes[v].Point] = next
			next++
		}
		for _, c := range t.Nodes[v].Children {
			descend(c)
		}
	}
	descend(0)
	return labels
}

// oracleMedoid is the two-pass 1-median, run on every call.
func oracleMedoid(t *Tree) (int, float64) {
	n := len(t.Nodes)
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
	above := make([]float64, n)
	for v := 1; v < n; v++ {
		p := t.Nodes[v].Parent
		w := t.Nodes[v].Weight
		outCnt := total - below[v].cnt
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

// oracleEMD is the dense bottom-up pass over every node.
func oracleEMD(t *Tree, mu, nu []float64) float64 {
	var tot float64
	imbalance := make([]float64, len(t.Nodes))
	for p := range mu {
		imbalance[t.Leaf[p]] += mu[p] - nu[p]
	}
	for v := len(t.Nodes) - 1; v > 0; v-- {
		tot += t.Nodes[v].Weight * math.Abs(imbalance[v])
		imbalance[t.Nodes[v].Parent] += imbalance[v]
	}
	return tot
}

type oracleVisit struct {
	dist float64
	node int
}

type oracleHeap []oracleVisit

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleVisit)) }
func (h *oracleHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// oracleKNN is the best-first traversal with a distance map and
// container/heap.
func oracleKNN(t *Tree, p, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	if max := t.NumPoints() - 1; k > max {
		k = max
	}
	if k == 0 {
		return nil
	}
	src := t.Leaf[p]
	dist := map[int]float64{src: 0}
	frontier := &oracleHeap{{dist: 0, node: src}}
	var found []Neighbor
	push := func(node int, d float64) {
		if old, seen := dist[node]; seen && old <= d {
			return
		}
		dist[node] = d
		heap.Push(frontier, oracleVisit{dist: d, node: node})
	}
	for frontier.Len() > 0 {
		v := heap.Pop(frontier).(oracleVisit)
		if v.dist > dist[v.node] {
			continue
		}
		if len(found) >= k && v.dist > found[k-1].Dist {
			break
		}
		nd := &t.Nodes[v.node]
		if nd.Point >= 0 && nd.Point != p {
			found = append(found, Neighbor{Point: nd.Point, Dist: v.dist})
		}
		if nd.Parent >= 0 {
			push(nd.Parent, v.dist+nd.Weight)
		}
		for _, c := range nd.Children {
			push(c, v.dist+t.Nodes[c].Weight)
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].Dist != found[j].Dist {
			return found[i].Dist < found[j].Dist
		}
		return found[i].Point < found[j].Point
	})
	if len(found) > k {
		found = found[:k]
	}
	return found
}

// shapedHST builds a random geometric HST like randomHST, with two
// options. maxChain > 0 hangs every leaf below a unary chain of
// 0..maxChain nodes, the shape of Algorithm 2's full-depth root paths.
// pointsInside makes some clusters emit one point as a node whose
// subtree holds the cluster's other points — a leaf with children.
func shapedHST(r *rng.RNG, nPoints, maxChain int, pointsInside bool) *Tree {
	b := NewBuilder(nPoints)
	type clus struct {
		node   int
		points []int
	}
	all := make([]int, nPoints)
	for i := range all {
		all[i] = i
	}
	frontier := []clus{{node: 0, points: all}}
	level := 1
	w := 64.0
	for len(frontier) > 0 {
		var next []clus
		for _, c := range frontier {
			if len(c.points) == 1 {
				node, cw := c.node, w
				for i := r.Intn(maxChain + 1); i > 0; i-- {
					node = b.AddNode(node, cw, level)
					cw /= 2
				}
				b.AddLeaf(node, cw, level, c.points[0])
				continue
			}
			if pointsInside && r.Intn(4) == 0 {
				inner := b.AddLeaf(c.node, w, level, c.points[0])
				next = append(next, clus{node: inner, points: c.points[1:]})
				continue
			}
			k := min(1+r.Intn(3), len(c.points))
			groups := make([][]int, k)
			for _, p := range c.points {
				g := r.Intn(k)
				groups[g] = append(groups[g], p)
			}
			for _, g := range groups {
				if len(g) > 0 {
					next = append(next, clus{node: b.AddNode(c.node, w, level), points: g})
				}
			}
		}
		frontier = next
		level++
		w /= 2
	}
	return b.Finish()
}

// oracleCase is one tree the kernels are checked on.
type oracleCase struct {
	shape string
	tree  *Tree
}

// oracleCases returns random trees of every shape the kernels meet:
// plain HSTs, chain-heavy ones, ones with points on inner nodes, the
// Compressed forms of chain-heavy ones and of ones with points on inner
// nodes, and trees rescaled by ScaleWeights after Finish.
func oracleCases(r *rng.RNG) []oracleCase {
	var cases []oracleCase
	for trial := 0; trial < 12; trial++ {
		n := 1 + r.Intn(60)
		chains := shapedHST(r, n, 6, false)
		plain := shapedHST(r, n, 0, false)
		inside := shapedHST(r, n, 3, true)
		cases = append(cases,
			oracleCase{"plain", plain},
			oracleCase{"chains", chains},
			oracleCase{"points-inside", inside},
			oracleCase{"compressed", chains.Compress()},
			oracleCase{"compressed-points-inside", inside.Compress()})
		for _, f := range []float64{1 / (1 - 0.3), 0.37} {
			scaled := shapedHST(r, n, 6, trial%2 == 0)
			scaled.ScaleWeights(f)
			cases = append(cases, oracleCase{"scaled", scaled})
		}
	}
	return cases
}

// randomMeasure puts mass on up to terms random points (every point when
// terms ≤ 0).
func randomMeasure(r *rng.RNG, n, terms int) []float64 {
	m := make([]float64, n)
	if terms <= 0 {
		for i := range m {
			m[i] = r.Float64()
		}
		return m
	}
	for i := 0; i < terms; i++ {
		m[r.Intn(n)] += 0.25 + r.Float64()
	}
	return m
}

// normalise scales m to total mass 1 in point order.
func normalise(m []float64) []float64 {
	var s float64
	for _, x := range m {
		s += x
	}
	for i := range m {
		m[i] /= s
	}
	return m
}

func TestKernelsMatchOracles(t *testing.T) {
	r := rng.New(2024)
	for i, c := range oracleCases(r) {
		tr, n := c.tree, c.tree.NumPoints()
		bounds := oracleDiameterBounds(tr)
		if got := tr.SubtreeLeafDiameterBound(); !slices.Equal(got, bounds) {
			t.Fatalf("%s #%d: SubtreeLeafDiameterBound = %v, oracle %v", c.shape, i, got, bounds)
		}
		// Every bound, just below it and between bounds: each admits a
		// different frontier.
		scales := []float64{-1, 0, math.NaN(), 1e9}
		for _, b := range bounds {
			scales = append(scales, b, math.Nextafter(b, 0), b*1.5)
		}
		for _, s := range scales {
			if got, want := tr.CutAtScale(s), oracleCut(tr, s); !slices.Equal(got, want) {
				t.Fatalf("%s #%d: CutAtScale(%v) = %v, oracle %v", c.shape, i, s, got, want)
			}
		}
		gp, gd := tr.MedoidLeaf()
		wp, wd := oracleMedoid(tr)
		if gp != wp || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("%s #%d: MedoidLeaf = (%d, %v), oracle (%d, %v)", c.shape, i, gp, gd, wp, wd)
		}
		for trial := 0; trial < 20; trial++ {
			terms := trial % 6 // 0: every point carries mass
			mu := normalise(randomMeasure(r, n, terms))
			nu := normalise(randomMeasure(r, n, terms))
			if trial%5 == 4 {
				nu = mu // equal measures: no support at all
			}
			got, want := tr.EMD(mu, nu), oracleEMD(tr, mu, nu)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s #%d: EMD = %v, oracle %v", c.shape, i, got, want)
			}
		}
		for p := 0; p < n; p++ {
			for _, k := range []int{1, 2, 5, n} {
				if got, want := tr.KNN(p, k), oracleKNN(tr, p, k); !slices.Equal(got, want) {
					t.Fatalf("%s #%d: KNN(%d, %d) = %v, oracle %v", c.shape, i, p, k, got, want)
				}
			}
		}
	}
}
