package hst

import (
	"math"
	"testing"

	"mpctree/internal/rng"
)

// chainTree builds root → a → b → leaf0, root → leaf1 with a unary chain.
func chainTree(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder(2)
	a := b.AddNode(b.Root(), 4, 1)
	c := b.AddNode(a, 2, 2)
	b.AddLeaf(c, 1, 3, 0)
	b.AddLeaf(b.Root(), 8, 1, 1)
	tr := b.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCompressMergesChains(t *testing.T) {
	tr := chainTree(t)
	ct := tr.Compress()
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
	// root, leaf0 (chain merged), leaf1 — 3 nodes.
	if ct.NumNodes() != 3 {
		t.Errorf("compressed to %d nodes, want 3", ct.NumNodes())
	}
	if got := ct.Dist(0, 1); got != tr.Dist(0, 1) {
		t.Errorf("metric changed: %v vs %v", got, tr.Dist(0, 1))
	}
	// Leaf 0's merged edge weight is 4+2+1 = 7.
	if w := ct.RootPathWeight(ct.Leaf[0]); w != 7 {
		t.Errorf("merged root path = %v, want 7", w)
	}
}

// TestCompressKeepsPointsBelowAPoint compresses a tree whose point 0
// sits on a node that has a child: root → a (point 0) → b → leaf 1, and
// root → leaf 2. The points below a pointed node keep their leaves.
func TestCompressKeepsPointsBelowAPoint(t *testing.T) {
	b := NewBuilder(3)
	a := b.AddLeaf(b.Root(), 8, 1, 0)
	c := b.AddNode(a, 4, 2)
	b.AddLeaf(c, 2, 3, 1)
	b.AddLeaf(b.Root(), 8, 1, 2)
	tr := b.Finish()
	ct := tr.Compress()
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
	// root, point 0, point 1 (its chain merged), point 2.
	if ct.NumNodes() != 4 {
		t.Errorf("compressed to %d nodes, want 4", ct.NumNodes())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got, want := ct.Dist(i, j), tr.Dist(i, j); got != want {
				t.Errorf("Dist(%d, %d) = %v after Compress, %v before", i, j, got, want)
			}
		}
	}
}

func TestCompressPreservesMetricOnRandomTrees(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 15; trial++ {
		tr := randomHST(r, 2+r.Intn(50))
		ct := tr.Compress()
		if err := ct.Validate(); err != nil {
			t.Fatal(err)
		}
		if ct.NumNodes() > tr.NumNodes() {
			t.Fatal("compression grew the tree")
		}
		n := tr.NumPoints()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Abs(ct.Dist(i, j)-tr.Dist(i, j)) > 1e-9 {
					t.Fatalf("metric changed at (%d,%d): %v vs %v", i, j, ct.Dist(i, j), tr.Dist(i, j))
				}
			}
		}
		// Compressed trees have no unary internal nodes (except possibly
		// the root, which has no incoming edge to merge with).
		for v := 1; v < ct.NumNodes(); v++ {
			if ct.Nodes[v].Point < 0 && len(ct.Nodes[v].Children) == 1 {
				t.Fatalf("unary internal node %d survived compression", v)
			}
		}
	}
}

func TestCompressIdempotent(t *testing.T) {
	r := rng.New(43)
	tr := randomHST(r, 30).Compress()
	again := tr.Compress()
	if again.NumNodes() != tr.NumNodes() {
		t.Errorf("second compression changed size: %d → %d", tr.NumNodes(), again.NumNodes())
	}
}

func TestEMDVectorEqualsTreeEMD(t *testing.T) {
	r := rng.New(44)
	for trial := 0; trial < 20; trial++ {
		tr := randomHST(r, 3+r.Intn(20))
		n := tr.NumPoints()
		mu := make([]float64, n)
		nu := make([]float64, n)
		var sm, sn float64
		for i := range mu {
			mu[i] = r.Float64()
			nu[i] = r.Float64()
			sm += mu[i]
			sn += nu[i]
		}
		for i := range mu {
			mu[i] /= sm
			nu[i] /= sn
		}
		want := tr.EMD(mu, nu)
		got := L1Dist(tr.EMDVector(mu), tr.EMDVector(nu))
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("ℓ1 embedding %v != tree EMD %v", got, want)
		}
	}
}

func TestEMDVectorShape(t *testing.T) {
	tr := buildSimple(t)
	v := tr.EMDVector([]float64{1, 0, 0})
	if len(v) != tr.NumNodes()-1 {
		t.Fatalf("vector length %d, want %d", len(v), tr.NumNodes()-1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong measure length accepted")
		}
	}()
	tr.EMDVector([]float64{1})
}

func TestL1DistPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	L1Dist([]float64{1}, []float64{1, 2})
}

// Compression pays off on MPC-style full-depth trees: build a long-chain
// heavy tree and verify substantial shrinkage.
func TestCompressShrinksChainHeavyTrees(t *testing.T) {
	b := NewBuilder(4)
	// Four chains of length 10 from the root.
	for p := 0; p < 4; p++ {
		cur := b.Root()
		w := 64.0
		for i := 0; i < 10; i++ {
			cur = b.AddNode(cur, w, i+1)
			w /= 2
		}
		b.AddLeaf(cur, w, 11, p)
	}
	tr := b.Finish()
	ct := tr.Compress()
	if ct.NumNodes() != 5 { // root + 4 leaves
		t.Errorf("compressed to %d nodes, want 5", ct.NumNodes())
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if math.Abs(ct.Dist(i, j)-tr.Dist(i, j)) > 1e-9 {
				t.Fatal("metric changed")
			}
		}
	}
}
