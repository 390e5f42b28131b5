package hst

import (
	"math"
	"testing"

	"mpctree/internal/rng"
)

// buildSimple constructs the tree
//
//	      root (0)
//	     /        \
//	   a(w=4)     b(w=4)
//	  /    \         \
//	p0(2)  p1(2)     p2(2)
//
// with point leaves p0, p1, p2.
func buildSimple(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder(3)
	a := b.AddNode(b.Root(), 4, 1)
	bb := b.AddNode(b.Root(), 4, 1)
	b.AddLeaf(a, 2, 2, 0)
	b.AddLeaf(a, 2, 2, 1)
	b.AddLeaf(bb, 2, 2, 2)
	tr := b.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return tr
}

func TestDistSimple(t *testing.T) {
	tr := buildSimple(t)
	if got := tr.Dist(0, 1); got != 4 {
		t.Errorf("Dist(0,1) = %v, want 4", got)
	}
	if got := tr.Dist(0, 2); got != 12 {
		t.Errorf("Dist(0,2) = %v, want 12", got)
	}
	if got := tr.Dist(1, 2); got != 12 {
		t.Errorf("Dist(1,2) = %v, want 12", got)
	}
	if got := tr.Dist(2, 2); got != 0 {
		t.Errorf("Dist(2,2) = %v, want 0", got)
	}
}

func TestLCASimple(t *testing.T) {
	tr := buildSimple(t)
	if got := tr.LCA(tr.Leaf[0], tr.Leaf[1]); got != 1 { // node a
		t.Errorf("LCA(p0,p1) = %d, want 1", got)
	}
	if got := tr.LCA(tr.Leaf[0], tr.Leaf[2]); got != 0 {
		t.Errorf("LCA(p0,p2) = %d, want root", got)
	}
	if got := tr.LCA(3, 3); got != 3 {
		t.Errorf("LCA(v,v) = %d, want v", got)
	}
	// LCA of a node with its ancestor is the ancestor.
	if got := tr.LCA(tr.Leaf[0], 1); got != 1 {
		t.Errorf("LCA(leaf, parent) = %d, want 1", got)
	}
}

func TestHeightDepthRootPath(t *testing.T) {
	tr := buildSimple(t)
	if tr.Height() != 2 {
		t.Errorf("Height = %d", tr.Height())
	}
	if tr.Depth(tr.Leaf[0]) != 2 || tr.Depth(0) != 0 {
		t.Error("Depth wrong")
	}
	if tr.RootPathWeight(tr.Leaf[0]) != 6 {
		t.Errorf("RootPathWeight = %v", tr.RootPathWeight(tr.Leaf[0]))
	}
}

func TestSubtreeCounts(t *testing.T) {
	tr := buildSimple(t)
	c := tr.SubtreeCounts()
	if c[0] != 3 {
		t.Errorf("root count = %d", c[0])
	}
	if c[1] != 2 || c[2] != 1 {
		t.Errorf("internal counts = %d, %d", c[1], c[2])
	}
}

func TestSubtreeLeafDiameterBound(t *testing.T) {
	tr := buildSimple(t)
	d := tr.SubtreeLeafDiameterBound()
	// Root: deepest leaf at upW 6, bound = 12.
	if d[0] != 12 {
		t.Errorf("root diameter bound = %v", d[0])
	}
	// Node a: leaves at 2 below it, bound 4; actual Dist(0,1)=4.
	if d[1] != 4 {
		t.Errorf("node a diameter bound = %v", d[1])
	}
	// Leaf: 0.
	if d[tr.Leaf[2]] != 0 {
		t.Errorf("leaf diameter bound = %v", d[tr.Leaf[2]])
	}
}

// randomHST builds a random geometric HST: levels with weight halving,
// random branching; returns the tree. Child edges at one level share a
// weight and weights halve per level — the family Tree.MST is exact on.
func randomHST(r *rng.RNG, nPoints int) *Tree {
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
				b.AddLeaf(c.node, w, level, c.points[0])
				continue
			}
			// Split points into 1-3 random groups.
			k := 1 + r.Intn(3)
			if k > len(c.points) {
				k = len(c.points)
			}
			groups := make([][]int, k)
			for _, p := range c.points {
				g := r.Intn(k)
				groups[g] = append(groups[g], p)
			}
			for _, g := range groups {
				if len(g) == 0 {
					continue
				}
				child := b.AddNode(c.node, w, level)
				next = append(next, clus{node: child, points: g})
			}
		}
		frontier = next
		level++
		w /= 2
	}
	return b.Finish()
}

// primMST computes the exact MST cost by Prim over the full pairwise tree
// metric — the brute-force reference.
func primMST(t *Tree) float64 {
	n := t.NumPoints()
	if n == 0 {
		return 0
	}
	inTree := make([]bool, n)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	total := 0.0
	for iter := 0; iter < n; iter++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best == -1 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		total += dist[best]
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := t.Dist(best, i); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

func TestMSTMatchesPrimOnHSTs(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		tr := randomHST(r, n)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		edges := tr.MST()
		if len(edges) != n-1 {
			t.Fatalf("MST has %d edges for %d points", len(edges), n)
		}
		got := tr.MSTCost()
		want := primMST(tr)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: MST cost %v != Prim %v", trial, got, want)
		}
		// Edge weights must equal the tree distances of their endpoints.
		for _, e := range edges {
			if math.Abs(e.Weight-tr.Dist(e.A, e.B)) > 1e-9 {
				t.Fatalf("edge weight %v != tree distance %v", e.Weight, tr.Dist(e.A, e.B))
			}
		}
	}
}

func TestMSTSpans(t *testing.T) {
	r := rng.New(78)
	tr := randomHST(r, 25)
	parent := make([]int, 25)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range tr.MST() {
		parent[find(e.A)] = find(e.B)
	}
	root := find(0)
	for i := 1; i < 25; i++ {
		if find(i) != root {
			t.Fatal("MST does not span all points")
		}
	}
}

func TestEMDSimple(t *testing.T) {
	tr := buildSimple(t)
	// All mass on p0 vs all on p2: EMD = dist(p0, p2) = 12.
	mu := []float64{1, 0, 0}
	nu := []float64{0, 0, 1}
	if got := tr.EMD(mu, nu); got != 12 {
		t.Errorf("EMD = %v, want 12", got)
	}
	// Identical measures: 0.
	if got := tr.EMD(mu, mu); got != 0 {
		t.Errorf("EMD(mu,mu) = %v", got)
	}
	// Split mass: 0.5 from p0 to p1 (dist 4) and 0.5 p0→p2 (dist 12) = 8.
	nu2 := []float64{0, 0.5, 0.5}
	if got := tr.EMD(mu, nu2); got != 8 {
		t.Errorf("EMD split = %v, want 8", got)
	}
}

func TestEMDSymmetricAndTriangle(t *testing.T) {
	r := rng.New(79)
	tr := randomHST(r, 12)
	n := tr.NumPoints()
	gen := func() []float64 {
		m := make([]float64, n)
		var s float64
		for i := range m {
			m[i] = r.Float64()
			s += m[i]
		}
		for i := range m {
			m[i] /= s
		}
		return m
	}
	for trial := 0; trial < 50; trial++ {
		a, b, c := gen(), gen(), gen()
		ab, ba := tr.EMD(a, b), tr.EMD(b, a)
		if math.Abs(ab-ba) > 1e-9 {
			t.Fatal("EMD not symmetric")
		}
		if tr.EMD(a, c) > ab+tr.EMD(b, c)+1e-9 {
			t.Fatal("EMD violates triangle inequality")
		}
	}
}

func TestEMDPanicsOnUnequalMass(t *testing.T) {
	tr := buildSimple(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unequal masses")
		}
	}()
	tr.EMD([]float64{1, 0, 0}, []float64{2, 0, 0})
}

// EMD on a tree must dominate nothing less than the transport lower bound:
// for unit masses on single points it equals the tree distance; for
// general measures it is at least |mu − nu| routed over the cheapest edge.
func TestEMDMatchesBruteForceMatching(t *testing.T) {
	r := rng.New(80)
	for trial := 0; trial < 20; trial++ {
		tr := randomHST(r, 6)
		// Unit mass on a random permutation matching: EMD ≤ cost of any
		// matching; compare against the best of all 3! matchings of 3
		// sources to 3 sinks.
		src := []int{0, 1, 2}
		dst := []int{3, 4, 5}
		mu := UniformMeasure(6, src)
		nu := UniformMeasure(6, dst)
		got := tr.EMD(mu, nu)
		best := math.Inf(1)
		perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		for _, pm := range perms {
			var c float64
			for i, j := range pm {
				c += tr.Dist(src[i], dst[j])
			}
			if c < best {
				best = c
			}
		}
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("tree EMD %v != optimal matching %v", got, best)
		}
	}
}

func TestUniformMeasure(t *testing.T) {
	m := UniformMeasure(4, []int{1, 1, 3})
	want := []float64{0, 2, 0, 1}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("UniformMeasure = %v", m)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := buildSimple(t)
	bad := *tr
	bad.Nodes = append([]Node{}, tr.Nodes...)
	bad.Nodes[2].Weight = -1
	if bad.Validate() == nil {
		t.Error("negative weight not caught")
	}
	bad2 := *tr
	bad2.Nodes = append([]Node{}, tr.Nodes...)
	bad2.Nodes[0].Parent = 5
	if bad2.Validate() == nil {
		t.Error("non-root node 0 not caught")
	}
	bad3 := *tr
	bad3.Leaf = append([]int{}, tr.Leaf...)
	bad3.Leaf[0] = 2 // internal node
	if bad3.Validate() == nil {
		t.Error("leaf pointing at internal node not caught")
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddNode with bad parent did not panic")
			}
		}()
		b.AddNode(99, 1, 1)
	}()
	b.AddLeaf(0, 1, 1, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double leaf did not panic")
			}
		}()
		b.AddLeaf(0, 1, 1, 0)
	}()
	// Missing leaf panics at Finish.
	b2 := NewBuilder(2)
	b2.AddLeaf(0, 1, 1, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("missing leaf did not panic at Finish")
			}
		}()
		b2.Finish()
	}()
}

func TestMaxLevel(t *testing.T) {
	tr := buildSimple(t)
	if got := tr.MaxLevel(); got != 2 {
		t.Errorf("MaxLevel = %d", got)
	}
}

// Tree distances must form a metric: symmetry, identity, triangle.
func TestTreeMetricAxioms(t *testing.T) {
	r := rng.New(81)
	tr := randomHST(r, 30)
	n := tr.NumPoints()
	for trial := 0; trial < 300; trial++ {
		a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
		if math.Abs(tr.Dist(a, b)-tr.Dist(b, a)) > 1e-12 {
			t.Fatal("not symmetric")
		}
		if tr.Dist(a, a) != 0 {
			t.Fatal("self distance nonzero")
		}
		if tr.Dist(a, c) > tr.Dist(a, b)+tr.Dist(b, c)+1e-9 {
			t.Fatal("triangle violated")
		}
		if a != b && tr.Dist(a, b) <= 0 {
			t.Fatal("distinct points at distance 0")
		}
	}
}

func TestSinglePointTree(t *testing.T) {
	b := NewBuilder(1)
	b.AddLeaf(0, 5, 1, 0)
	tr := b.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Dist(0, 0) != 0 {
		t.Error("singleton distance nonzero")
	}
	if len(tr.MST()) != 0 {
		t.Error("singleton MST should be empty")
	}
}

func BenchmarkDist(b *testing.B) {
	r := rng.New(1)
	tr := randomHST(r, 2000)
	n := tr.NumPoints()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tr.Dist(i%n, (i*7+3)%n)
	}
	_ = sink
}

func BenchmarkMST(b *testing.B) {
	r := rng.New(1)
	tr := randomHST(r, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.MST()
	}
}
