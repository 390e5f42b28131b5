package mpcapps

import (
	"math"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// buildEmbedding runs the Theorem-1 pipeline with paths kept. The inputs
// here have d < k, so the FJLT is skipped and the tree is Algorithm 2's
// with R=2 and the given seed (the pipeline seeds Algorithm 2 with
// Seed^0x7EE).
func buildEmbedding(t testing.TB, pts []vec.Point, machines int, seed uint64) *Embedding {
	t.Helper()
	c := mpc.New(mpc.Config{Machines: machines, CapWords: 1 << 22})
	tree, _, _, err := core.EmbedPaths(c, pts, core.PipelineOptions{R: 2, Seed: seed ^ 0x7EE})
	if err != nil {
		t.Fatal(err)
	}
	return New(c, tree, nil, nil)
}

// The distributed EMD must equal the driver-side tree EMD exactly (same
// tree, same transport).
func TestMPCEMDMatchesTreeEMD(t *testing.T) {
	pts := workload.UniformLattice(1, 60, 4, 64)
	e := buildEmbedding(t, pts, 4, 7)
	r := rng.New(3)
	for trial := 0; trial < 3; trial++ {
		n := len(pts)
		mu := make([]float64, n)
		nu := make([]float64, n)
		var sm, sn float64
		for i := 0; i < n; i++ {
			mu[i] = r.Float64()
			nu[i] = r.Float64()
			sm += mu[i]
			sn += nu[i]
		}
		for i := 0; i < n; i++ {
			mu[i] /= sm
			nu[i] /= sn
		}
		want := e.Tree.EMD(mu, nu)
		got, err := e.EMD(mu, nu)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: MPC EMD %v != tree EMD %v", trial, got, want)
		}
	}
}

// Corollary 1: the whole query must run in O(1) rounds.
func TestMPCEMDConstantRounds(t *testing.T) {
	for _, n := range []int{40, 120} {
		pts := workload.UniformLattice(2, n, 4, 128)
		e := buildEmbedding(t, pts, 4, 9)
		before := e.Cluster.Metrics().Rounds
		mu := make([]float64, n)
		nu := make([]float64, n)
		for i := 0; i < n/2; i++ {
			mu[i] = 1
			nu[n-1-i] = 1
		}
		if _, err := e.EMD(mu, nu); err != nil {
			t.Fatal(err)
		}
		rounds := e.Cluster.Metrics().Rounds - before
		if rounds > 6 {
			t.Errorf("n=%d: EMD took %d rounds", n, rounds)
		}
	}
}

func TestMPCEMDRepeatableQueries(t *testing.T) {
	pts := workload.UniformLattice(3, 50, 3, 64)
	e := buildEmbedding(t, pts, 3, 11)
	n := len(pts)
	mu := make([]float64, n)
	nu := make([]float64, n)
	mu[0], nu[n-1] = 1, 1
	a, err := e.EMD(mu, nu)
	if err != nil {
		t.Fatal(err)
	}
	// The cluster must be clean for a second, different query.
	mu2 := make([]float64, n)
	nu2 := make([]float64, n)
	mu2[1], nu2[2] = 1, 1
	b, err := e.EMD(mu2, nu2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Log("distinct queries coincided (possible but unlikely)")
	}
	// And re-running the first query reproduces it exactly.
	a2, err := e.EMD(mu, nu)
	if err != nil {
		t.Fatal(err)
	}
	if a != a2 {
		t.Fatalf("repeat query differs: %v vs %v", a, a2)
	}
}

func TestMPCEMDValidation(t *testing.T) {
	pts := workload.UniformLattice(4, 20, 3, 64)
	e := buildEmbedding(t, pts, 2, 13)
	if _, err := e.EMD([]float64{1}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	mu := make([]float64, 20)
	nu := make([]float64, 20)
	mu[0] = 2
	nu[0] = 1
	if _, err := e.EMD(mu, nu); err == nil {
		t.Error("unequal masses accepted")
	}
}

// Distributed densest ball: a planted cluster must dominate the counts,
// and the result should match the driver-side subtree-count maximum at
// the same scale bound.
func TestMPCDensestBall(t *testing.T) {
	r := rng.New(5)
	var pts []vec.Point
	for i := 0; i < 30; i++ {
		pts = append(pts, vec.Point{500 + r.UniformRange(-1, 1), 500 + r.UniformRange(-1, 1), 500 + r.UniformRange(-1, 1)})
	}
	for i := 0; i < 40; i++ {
		pts = append(pts, vec.Point{r.UniformRange(0, 1000), r.UniformRange(0, 1000), r.UniformRange(0, 1000)})
	}
	pts = vec.Dedup(pts)
	e := buildEmbedding(t, pts, 4, 17)
	res, err := e.DensestBall(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < 15 {
		t.Errorf("planted cluster missed: count %d", res.Count)
	}
	if res.Level < 1 || res.Level > e.levels {
		t.Errorf("bad level %d", res.Level)
	}
	// Cross-check against driver-side counts at the same level.
	if best := driverMaxCount(e.Tree, res.Level); res.Count != best {
		t.Errorf("MPC count %d != driver-side max %d at level %d", res.Count, best, res.Level)
	}
}

// driverMaxCount is the densest ball's driver-side answer: the largest
// leaf count under one internal node at level lev; leaves at that level
// count as singleton clusters.
func driverMaxCount(tree *hst.Tree, lev int) int {
	counts := tree.SubtreeCounts()
	best := 0
	for v, nd := range tree.Nodes {
		if nd.Level == lev && nd.Point < 0 && counts[v] > best {
			best = counts[v]
		}
	}
	return max(best, 1)
}

func TestMPCDensestBallValidation(t *testing.T) {
	pts := workload.UniformLattice(6, 20, 3, 64)
	e := buildEmbedding(t, pts, 2, 19)
	if _, err := e.DensestBall(0, 1); err == nil {
		t.Error("D=0 accepted")
	}
	if _, err := e.DensestBall(1, -1); err == nil {
		t.Error("beta<0 accepted")
	}
}

// Different machine counts must agree on every query answer.
func TestMPCAppsMachineCountInvariance(t *testing.T) {
	pts := workload.GaussianClusters(7, 50, 3, 3, 4, 256)
	n := len(pts)
	mu := make([]float64, n)
	nu := make([]float64, n)
	for i := 0; i < n/2; i++ {
		mu[i] = 1
		nu[n-1-i] = 1
	}
	var emds []float64
	var counts []int
	for _, M := range []int{2, 5} {
		e := buildEmbedding(t, pts, M, 23)
		v, err := e.EMD(mu, nu)
		if err != nil {
			t.Fatal(err)
		}
		emds = append(emds, v)
		db, err := e.DensestBall(8, 64)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, db.Count)
	}
	if math.Abs(emds[0]-emds[1]) > 1e-9 {
		t.Errorf("EMD differs across machine counts: %v", emds)
	}
	if counts[0] != counts[1] {
		t.Errorf("densest ball differs across machine counts: %v", counts)
	}
}

// The distributed MST must span, contain n−1 edges, and cost exactly what
// the driver-side tree MST costs (both are minimum under the tree metric;
// edge sets may differ on ties).
func TestMPCMSTMatchesTreeMST(t *testing.T) {
	pts := workload.GaussianClusters(8, 70, 3, 4, 6, 512)
	e := buildEmbedding(t, pts, 4, 29)
	edges, err := e.MST()
	if err != nil {
		t.Fatal(err)
	}
	n := len(pts)
	if len(edges) != n-1 {
		t.Fatalf("%d edges for %d points", len(edges), n)
	}
	// Spanning check via union-find.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, ed := range edges {
		ra, rb := find(ed.A), find(ed.B)
		if ra == rb {
			t.Fatal("cycle in distributed MST")
		}
		parent[ra] = rb
	}
	root := find(0)
	for i := 1; i < n; i++ {
		if find(i) != root {
			t.Fatal("distributed MST does not span")
		}
	}
	// Edge weights match tree distances of their endpoints.
	for _, ed := range edges {
		if math.Abs(ed.Weight-e.Tree.Dist(ed.A, ed.B)) > 1e-9 {
			t.Fatalf("edge (%d,%d) weight %v != tree distance %v", ed.A, ed.B, ed.Weight, e.Tree.Dist(ed.A, ed.B))
		}
	}
	// Total cost equals the exact tree-metric MST cost.
	got, err := e.MSTCost()
	if err != nil {
		t.Fatal(err)
	}
	want := e.Tree.MSTCost()
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("distributed MST cost %v != tree MST cost %v", got, want)
	}
}

func TestMPCMSTConstantRoundsAndRepeatable(t *testing.T) {
	pts := workload.UniformLattice(9, 80, 3, 128)
	e := buildEmbedding(t, pts, 5, 31)
	before := e.Cluster.Metrics().Rounds
	c1, err := e.MSTCost()
	if err != nil {
		t.Fatal(err)
	}
	rounds := e.Cluster.Metrics().Rounds - before
	if rounds > 3 {
		t.Errorf("MST took %d rounds", rounds)
	}
	// Queries after MST still work (paths intact).
	c2, err := e.MSTCost()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("repeat MST differs: %v vs %v", c1, c2)
	}
	n := len(pts)
	mu := make([]float64, n)
	nu := make([]float64, n)
	mu[0], nu[1] = 1, 1
	if _, err := e.EMD(mu, nu); err != nil {
		t.Fatalf("EMD after MST failed: %v", err)
	}
}

// On a tree the FJLT reduced, the queries read the tree's own weights,
// the 1/(1−ξ) rescale included, so every answer agrees with the
// driver-side one on the same tree.
func TestMPCQueriesOnFJLTTree(t *testing.T) {
	pts := workload.UniformLattice(2, 64, 200, 128)
	c := mpc.New(mpc.Config{Machines: 8, CapWords: 1 << 22})
	tree, info, _, err := core.EmbedPaths(c, pts, core.PipelineOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !info.UsedFJLT {
		t.Fatal("FJLT skipped at d=200")
	}
	e := New(c, tree, nil, nil)
	n := len(pts)
	mu := make([]float64, n)
	nu := make([]float64, n)
	r := rng.New(4)
	for i := range mu {
		mu[i], nu[i] = r.Float64(), r.Float64()
	}
	sm, sn := 0.0, 0.0
	for i := range mu {
		sm += mu[i]
		sn += nu[i]
	}
	for i := range mu {
		mu[i] /= sm
		nu[i] /= sn
	}
	got, err := e.EMD(mu, nu)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.EMD(mu, nu); math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("MPC EMD %v != tree EMD %v", got, want)
	}
	edges, err := e.MST()
	if err != nil {
		t.Fatal(err)
	}
	cost := 0.0
	for _, ed := range edges {
		d := tree.Dist(ed.A, ed.B)
		if math.Abs(ed.Weight-d) > 1e-9*(1+d) {
			t.Fatalf("edge (%d,%d) weight %v != tree distance %v", ed.A, ed.B, ed.Weight, d)
		}
		cost += ed.Weight
	}
	if want := tree.MSTCost(); math.Abs(cost-want) > 1e-9*(1+want) {
		t.Errorf("MPC MST cost %v != tree MST cost %v", cost, want)
	}
	ball, err := e.DensestBall(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if best := driverMaxCount(tree, ball.Level); ball.Count != best {
		t.Errorf("MPC count %d != driver-side max %d at level %d", ball.Count, best, ball.Level)
	}
	for _, nd := range tree.Nodes {
		if nd.Level == ball.Level && ball.DiameterBound != 2*nd.Weight {
			t.Fatalf("diameter bound %v, but level-%d edges weigh %v", ball.DiameterBound, ball.Level, nd.Weight)
		}
	}
}
