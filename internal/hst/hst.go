// Package hst implements the weighted hierarchical trees produced by the
// embedding algorithms and the tree-metric operations downstream
// applications need.
//
// A Tree is an arena of nodes rooted at node 0. Each data point is a leaf;
// the tree metric dist_T(p, q) is the total weight of the tree path between
// the leaves of p and q, computed via LCA with binary lifting in O(log h)
// per query after O(n log h) preprocessing.
//
// Beyond distance queries the package provides the primitives Corollary 1
// of the paper builds on: exact minimum spanning trees of the leaf set
// under the tree metric, Earth-Mover distance between leaf measures under
// the tree metric (both computable exactly in linear time on trees), and
// subtree statistics for densest-ball style queries.
package hst

import (
	"fmt"
	"math"
	"math/bits"
)

// Node is one vertex of the hierarchy.
type Node struct {
	Parent   int     // arena index of the parent; -1 for the root
	Weight   float64 // weight of the edge to the parent; 0 for the root
	Level    int     // hierarchy level (root = 0)
	Point    int     // data point index for leaves; -1 for internal nodes
	Children []int   // arena indices of children
}

// Tree is a weighted rooted tree over n data points. Build one with
// Builder (or ReadTree); once finished, every query method (Dist, KNN,
// MST, EMD, CutAtScale, MedoidLeaf, …) only reads the arrays, so a Tree
// is safe for any number of concurrent readers — the serving layer
// (internal/serve) relies on this, answering queries from many
// goroutines against one *Tree and hot-swapping trees by replacing the
// pointer, never by mutating a published Tree. The only mutators are
// Compress (returns a new Tree; the receiver is untouched) and
// ScaleWeights, which must happen-before the Tree is shared.
type Tree struct {
	Nodes []Node
	Leaf  []int // Leaf[i] = arena index of point i's leaf

	// Derived (built by Builder.Finish):
	depth []int     // edge depth from root
	upW   []float64 // total weight of the root path
	up    [][]int32 // binary lifting: up[k][v] = 2^k-th ancestor
}

// NumPoints returns the number of embedded data points.
func (t *Tree) NumPoints() int { return len(t.Leaf) }

// NumNodes returns the total number of tree vertices.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// Height returns the maximum edge depth of any node.
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.depth {
		if d > h {
			h = d
		}
	}
	return h
}

// RootPathWeight returns the total weight from node v to the root.
func (t *Tree) RootPathWeight(v int) float64 { return t.upW[v] }

// Depth returns the edge depth of node v.
func (t *Tree) Depth(v int) int { return t.depth[v] }

// LCA returns the lowest common ancestor of nodes a and b.
func (t *Tree) LCA(a, b int) int {
	if t.depth[a] < t.depth[b] {
		a, b = b, a
	}
	// Lift a to b's depth.
	diff := t.depth[a] - t.depth[b]
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			a = int(t.up[k][a])
		}
		diff >>= 1
	}
	if a == b {
		return a
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if t.up[k][a] != t.up[k][b] {
			a = int(t.up[k][a])
			b = int(t.up[k][b])
		}
	}
	return t.Nodes[a].Parent
}

// NodeDist returns the tree-path weight between arbitrary nodes a and b.
func (t *Tree) NodeDist(a, b int) float64 {
	l := t.LCA(a, b)
	return t.upW[a] + t.upW[b] - 2*t.upW[l]
}

// Dist returns dist_T(p, q), the tree metric between data points p and q.
func (t *Tree) Dist(p, q int) float64 {
	return t.NodeDist(t.Leaf[p], t.Leaf[q])
}

// SubtreeCounts returns, for every node, the number of data-point leaves in
// its subtree.
func (t *Tree) SubtreeCounts() []int {
	counts := make([]int, len(t.Nodes))
	for _, leaf := range t.Leaf {
		counts[leaf]++
	}
	// Nodes are created parent-before-child by Builder, so a reverse scan
	// accumulates children into parents.
	for v := len(t.Nodes) - 1; v > 0; v-- {
		counts[t.Nodes[v].Parent] += counts[v]
	}
	return counts
}

// SubtreeLeafDiameterBound returns, per node, an upper bound on the tree
// distance between any two leaves of its subtree: twice the maximum
// root-path weight below it minus twice its own root-path weight.
func (t *Tree) SubtreeLeafDiameterBound() []float64 {
	maxUp := make([]float64, len(t.Nodes))
	copy(maxUp, t.upW)
	for v := len(t.Nodes) - 1; v > 0; v-- {
		p := t.Nodes[v].Parent
		if maxUp[v] > maxUp[p] {
			maxUp[p] = maxUp[v]
		}
	}
	out := make([]float64, len(t.Nodes))
	for v := range out {
		out[v] = 2 * (maxUp[v] - t.upW[v])
	}
	return out
}

// Validate checks structural invariants and returns a descriptive error if
// any fail: single root at index 0, parents precede children, every point
// has a leaf, leaves carry the right point index, weights non-negative.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("hst: empty tree")
	}
	if t.Nodes[0].Parent != -1 {
		return fmt.Errorf("hst: node 0 is not a root")
	}
	for v := 1; v < len(t.Nodes); v++ {
		n := t.Nodes[v]
		if n.Parent < 0 || n.Parent >= v {
			return fmt.Errorf("hst: node %d has invalid parent %d", v, n.Parent)
		}
		if n.Weight < 0 {
			return fmt.Errorf("hst: node %d has negative edge weight", v)
		}
		if math.IsNaN(n.Weight) || math.IsInf(n.Weight, 0) {
			return fmt.Errorf("hst: node %d has non-finite edge weight", v)
		}
	}
	for p, leaf := range t.Leaf {
		if leaf < 0 || leaf >= len(t.Nodes) {
			return fmt.Errorf("hst: point %d has out-of-range leaf %d", p, leaf)
		}
		if t.Nodes[leaf].Point != p {
			return fmt.Errorf("hst: leaf %d of point %d claims point %d", leaf, p, t.Nodes[leaf].Point)
		}
	}
	return nil
}

// Builder incrementally constructs a Tree. Nodes must be added parent
// before child (the natural order for top-down hierarchical partitioning).
type Builder struct {
	t Tree
}

// NewBuilder returns a builder for a tree over numPoints data points, with
// a root pre-created at index 0.
func NewBuilder(numPoints int) *Builder {
	b := &Builder{}
	b.t.Nodes = append(b.t.Nodes, Node{Parent: -1, Point: -1})
	b.t.Leaf = make([]int, numPoints)
	for i := range b.t.Leaf {
		b.t.Leaf[i] = -1
	}
	return b
}

// Root returns the arena index of the root (always 0).
func (b *Builder) Root() int { return 0 }

// AddNode appends an internal node under parent with the given edge weight
// and level, returning its arena index.
func (b *Builder) AddNode(parent int, weight float64, level int) int {
	if parent < 0 || parent >= len(b.t.Nodes) {
		panic(fmt.Sprintf("hst: AddNode with unknown parent %d", parent))
	}
	id := len(b.t.Nodes)
	b.t.Nodes = append(b.t.Nodes, Node{Parent: parent, Weight: weight, Level: level, Point: -1})
	b.t.Nodes[parent].Children = append(b.t.Nodes[parent].Children, id)
	return id
}

// AddLeaf appends a leaf for data point p under parent.
func (b *Builder) AddLeaf(parent int, weight float64, level, p int) int {
	id := b.AddNode(parent, weight, level)
	b.t.Nodes[id].Point = p
	if b.t.Leaf[p] != -1 {
		panic(fmt.Sprintf("hst: point %d already has a leaf", p))
	}
	b.t.Leaf[p] = id
	return id
}

// Finish computes the derived arrays (depths, root-path weights, binary
// lifting tables) and returns the finished tree. The builder must not be
// reused. It panics if any point lacks a leaf.
func (b *Builder) Finish() *Tree {
	t := &b.t
	for p, leaf := range t.Leaf {
		if leaf == -1 {
			panic(fmt.Sprintf("hst: point %d has no leaf", p))
		}
	}
	n := len(t.Nodes)
	t.depth = make([]int, n)
	t.upW = make([]float64, n)
	maxDepth := 0
	for v := 1; v < n; v++ {
		p := t.Nodes[v].Parent
		t.depth[v] = t.depth[p] + 1
		t.upW[v] = t.upW[p] + t.Nodes[v].Weight
		if t.depth[v] > maxDepth {
			maxDepth = t.depth[v]
		}
	}
	levels := 1
	if maxDepth > 0 {
		levels = bits.Len(uint(maxDepth))
	}
	t.up = make([][]int32, levels)
	t.up[0] = make([]int32, n)
	for v := 0; v < n; v++ {
		p := t.Nodes[v].Parent
		if p < 0 {
			p = 0 // root lifts to itself
		}
		t.up[0][v] = int32(p)
	}
	for k := 1; k < levels; k++ {
		t.up[k] = make([]int32, n)
		prev := t.up[k-1]
		for v := 0; v < n; v++ {
			t.up[k][v] = prev[prev[v]]
		}
	}
	return t
}

// MSTEdge is one edge of a spanning tree over data points.
type MSTEdge struct {
	A, B   int // data point indices
	Weight float64
}

// MST computes a minimum spanning tree of the complete graph on the data
// points under the tree metric, in linear time: for each internal node,
// the child components are joined by a star through the component whose
// subtree contains the leaf closest (in root-path weight) to the node.
//
// This is exact for the hierarchically well-separated trees this package's
// pipelines build — trees where all child edges of a node share one weight
// and level weights decay geometrically with ratio ≥ 2, so the leaf height
// below a node is strictly less than the node's parent edge weight and the
// cut property localises every MST edge to the children of its endpoint
// LCA. For arbitrary weighted trees the result is a spanning tree but not
// necessarily minimum. Exactness on pipeline-built trees is pinned against
// brute-force Prim in the tests.
func (t *Tree) MST() []MSTEdge {
	n := len(t.Nodes)
	// bestLeaf[v]: leaf in v's subtree minimising upW (closest to v along
	// the root path); computed bottom-up.
	bestLeaf := make([]int, n)
	for v := range bestLeaf {
		bestLeaf[v] = -1
	}
	for _, leaf := range t.Leaf {
		bestLeaf[leaf] = leaf
	}
	for v := n - 1; v > 0; v-- {
		p := t.Nodes[v].Parent
		if bestLeaf[v] == -1 {
			continue
		}
		if bestLeaf[p] == -1 || t.upW[bestLeaf[v]] < t.upW[bestLeaf[p]] {
			bestLeaf[p] = bestLeaf[v]
		}
	}
	var edges []MSTEdge
	for v := 0; v < n; v++ {
		node := &t.Nodes[v]
		// Representative leaf per component below v: v itself if it is a
		// leaf that also has children (not produced by our builders, but
		// handled), plus each child subtree containing leaves.
		reps := make([]int, 0, len(node.Children)+1)
		if node.Point >= 0 && len(node.Children) > 0 {
			reps = append(reps, v)
		}
		for _, c := range node.Children {
			if bestLeaf[c] != -1 {
				reps = append(reps, bestLeaf[c])
			}
		}
		if len(reps) < 2 {
			continue
		}
		center := reps[0]
		for _, l := range reps[1:] {
			if t.upW[l] < t.upW[center] {
				center = l
			}
		}
		for _, l := range reps {
			if l == center {
				continue
			}
			w := (t.upW[l] - t.upW[v]) + (t.upW[center] - t.upW[v])
			edges = append(edges, MSTEdge{A: t.Nodes[l].Point, B: t.Nodes[center].Point, Weight: w})
		}
	}
	return edges
}

// MSTCost returns the total weight of MST().
func (t *Tree) MSTCost() float64 {
	var s float64
	for _, e := range t.MST() {
		s += e.Weight
	}
	return s
}

// EMD computes the Earth-Mover distance between two measures on the data
// points under the tree metric. mu and nu assign mass to point indices and
// must have equal totals (within 1e-9). On a tree the optimal flow routes
// each edge's imbalance across it, so
//
//	EMD = Σ_edges weight(e) · |mu(subtree below e) − nu(subtree below e)|
//
// computed here in one bottom-up pass.
func (t *Tree) EMD(mu, nu []float64) float64 {
	if len(mu) != t.NumPoints() || len(nu) != t.NumPoints() {
		panic("hst: EMD measure length mismatch")
	}
	var tot float64
	imbalance := make([]float64, len(t.Nodes))
	var sumMu, sumNu float64
	for p := range mu {
		imbalance[t.Leaf[p]] += mu[p] - nu[p]
		sumMu += mu[p]
		sumNu += nu[p]
	}
	if math.Abs(sumMu-sumNu) > 1e-9*(1+math.Abs(sumMu)) {
		panic(fmt.Sprintf("hst: EMD requires equal masses, got %v vs %v", sumMu, sumNu))
	}
	for v := len(t.Nodes) - 1; v > 0; v-- {
		tot += t.Nodes[v].Weight * math.Abs(imbalance[v])
		imbalance[t.Nodes[v].Parent] += imbalance[v]
	}
	return tot
}

// UniformMeasure returns a measure placing mass 1 on each listed point.
func UniformMeasure(n int, points []int) []float64 {
	m := make([]float64, n)
	for _, p := range points {
		m[p]++
	}
	return m
}

// ScaleWeights multiplies every edge weight by factor > 0, rescaling the
// whole tree metric. Used by the Theorem-1 pipeline to restore strict
// domination after the FJLT's (1−ξ) contraction.
func (t *Tree) ScaleWeights(factor float64) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("hst: bad scale factor %v", factor))
	}
	for v := range t.Nodes {
		t.Nodes[v].Weight *= factor
	}
	for v := range t.upW {
		t.upW[v] *= factor
	}
}

// MaxLevel returns the largest hierarchy level present.
func (t *Tree) MaxLevel() int {
	m := 0
	for _, n := range t.Nodes {
		if n.Level > m {
			m = n.Level
		}
	}
	return m
}
