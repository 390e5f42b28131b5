package mpctree

import (
	"math"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/mpcapps"
	"mpctree/internal/mpcembed"
	"mpctree/internal/workload"
)

func TestFacadeEmbed(t *testing.T) {
	pts := workload.UniformLattice(1, 60, 4, 64)
	tree, info, err := Embed(pts, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != Hybrid {
		t.Errorf("default method = %v", info.Method)
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if tree.Dist(i, j) < Dist(pts[i], pts[j])-1e-9 {
				t.Fatal("domination violated through facade")
			}
		}
	}
}

func TestFacadeEmbedMPC(t *testing.T) {
	pts := workload.UniformLattice(2, 40, 4, 64)
	tree, info, err := EmbedMPC(pts, MPCOptions{Machines: 4, CapWords: 1 << 22, Seed: 3})
	if err != nil {
		t.Fatalf("%v (info %+v)", err, info)
	}
	if info.Machines != 4 || info.Metrics.Rounds == 0 {
		t.Errorf("MPC accounting missing: %+v", info)
	}
	if tree.NumPoints() != len(pts) {
		t.Error("wrong leaf count")
	}
}

func TestFacadeEmbedMPCDefaults(t *testing.T) {
	pts := workload.UniformLattice(3, 30, 3, 64)
	// Default cap may or may not fit the grids for this tiny instance;
	// both a success and a clean model-level error are acceptable — what
	// is not acceptable is a panic or a malformed tree.
	tree, info, err := EmbedMPC(pts, MPCOptions{Seed: 5})
	if err != nil {
		t.Logf("default-cap run reported: %v (cap=%d)", err, info.CapWords)
		return
	}
	if tree.NumPoints() != len(pts) {
		t.Error("wrong leaf count")
	}
}

func TestFacadeFJLT(t *testing.T) {
	pts := workload.SparseBinary(4, 30, 256, 2, 100)
	mapped, err := FJLT(pts, FJLTOptions{Xi: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(mapped) != len(pts) {
		t.Fatal("length mismatch")
	}
	if len(mapped[0]) >= 256 {
		t.Errorf("FJLT did not reduce dimension: %d", len(mapped[0]))
	}
	if out, err := FJLT(nil, FJLTOptions{}); err != nil || out != nil {
		t.Error("empty FJLT should be a no-op")
	}
}

func TestFacadeApps(t *testing.T) {
	pts := workload.GaussianClusters(5, 50, 3, 3, 2, 256)
	tree, _, err := Embed(pts, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactMST(pts)
	approx := ApproxMST(pts, tree)
	var ce, ca float64
	for _, e := range exact {
		ce += e.Weight
	}
	for _, e := range approx {
		ca += e.Weight
	}
	if ca < ce-1e-9 {
		t.Error("approx MST beat exact")
	}

	n := len(pts)
	mu := make([]float64, n)
	nu := make([]float64, n)
	for i := 0; i < n/2; i++ {
		mu[i] = 1
		nu[n-1-i] = 1
	}
	te := ApproxEMD(tree, mu, nu)
	ee, err := ExactEMD(pts, mu, nu)
	if err != nil {
		t.Fatal(err)
	}
	if te < ee-1e-6 {
		t.Error("approx EMD beat exact")
	}

	db := DensestBall(tree, 10, 64)
	if db.Count < 1 {
		t.Error("densest ball found nothing")
	}
	if db.Node >= 0 {
		if got := len(ClusterMembers(tree, db.Node)); got != db.Count {
			t.Errorf("members %d != count %d", got, db.Count)
		}
	}
	if eb := ExactDensestBall(pts, 10); eb.Count < 1 {
		t.Error("exact densest ball found nothing")
	}
}

func TestFacadeDistributedEmbedding(t *testing.T) {
	pts := workload.GaussianClusters(9, 40, 3, 3, 4, 256)
	e, err := NewDistributedEmbedding(pts, MPCOptions{Machines: 4, CapWords: 1 << 22, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	n := len(pts)
	mu := make([]float64, n)
	nu := make([]float64, n)
	mu[0], nu[n-1] = 1, 1
	got, err := e.EMD(mu, nu)
	if err != nil {
		t.Fatal(err)
	}
	// The distributed EMD adds the tree EMD's terms in another order, so
	// the two agree to rounding, not bit for bit.
	if want := e.Tree.EMD(mu, nu); math.Abs(got-want) > 1e-9*(1+want) {
		t.Fatalf("distributed EMD %v != tree EMD %v", got, want)
	}
	db, err := e.DensestBall(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if db.Count < 1 {
		t.Error("densest ball found nothing")
	}
}

// The Theorem-1 pipeline leaves only Algorithm 2's path records resident,
// one per point on the machine that owns its key, whether the cluster is
// EmbedMPC's or a distributed embedding's: nothing else would be read
// again, yet it would count against every machine's cap during each query
// and be copied into each query's checkpoint.
func TestDistributedEmbeddingKeepsOnlyPaths(t *testing.T) {
	pts := workload.UniformLattice(3, 64, 200, 128)
	opt := MPCOptions{Machines: 8, CapWords: 1 << 22, Seed: 11}
	e, err := NewDistributedEmbedding(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, _, _, err := embedMPC(pts, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*mpc.Cluster{"NewDistributedEmbedding": e.Cluster, "EmbedMPC": plain} {
		seen := make([]bool, len(pts))
		for m := 0; m < c.Machines(); m++ {
			for _, rec := range c.Store(m) {
				if rec.Tag != mpcembed.TagPath {
					t.Fatalf("%s: machine %d holds a record with tag %d (key %q)", name, m, rec.Tag, rec.Key)
				}
				if owner := mpc.Owner(rec.Key, c.Machines()); owner != m {
					t.Fatalf("%s: path %q on machine %d, owner %d", name, rec.Key, m, owner)
				}
				p, _, _, _ := mpcembed.PathAt(rec, 0)
				if seen[p] {
					t.Fatalf("%s: point %d has two resident paths", name, p)
				}
				seen[p] = true
			}
		}
		for p, ok := range seen {
			if !ok {
				t.Errorf("%s: point %d has no resident path", name, p)
			}
		}
	}
}

// A distributed embedding of one point holds its one path record, so its
// densest ball holds that point.
func TestDistributedEmbeddingSinglePoint(t *testing.T) {
	e, err := NewDistributedEmbedding([]Point{{1, 2}}, MPCOptions{Machines: 4, CapWords: 1 << 22, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := e.Cluster.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Tag != mpcembed.TagPath {
		t.Fatalf("resident records %+v, want one path record", recs)
	}
	if ball, err := e.DensestBall(1, 1); err != nil || ball.Count != 1 {
		t.Errorf("densest ball %+v (err %v), want 1 point", ball, err)
	}
	if emd, err := e.EMD([]float64{1}, []float64{1}); err != nil || emd != 0 {
		t.Errorf("EMD %v (err %v), want 0", emd, err)
	}
	if edges, err := e.MST(); err != nil || len(edges) != 0 {
		t.Errorf("MST %v (err %v), want no edge", edges, err)
	}
}

// distributedAnswers runs the three Corollary-1 queries on e.
func distributedAnswers(t *testing.T, e *DistributedEmbedding) (emd, mst float64, ball mpcapps.BallResult) {
	t.Helper()
	n := e.Tree.NumPoints()
	mu := make([]float64, n)
	nu := make([]float64, n)
	for i := 0; i < n/2; i++ {
		mu[i] = 1
		nu[n-1-i] = 1
	}
	emd, err := e.EMD(mu, nu)
	if err != nil {
		t.Fatalf("EMD: %v", err)
	}
	if mst, err = e.MSTCost(); err != nil {
		t.Fatalf("MST: %v", err)
	}
	if ball, err = e.DensestBall(8, 64); err != nil {
		t.Fatalf("densest ball: %v", err)
	}
	return emd, mst, ball
}

// NewDistributedEmbedding runs EmbedMPC's pipeline, so its tree is
// EmbedMPC's byte for byte: where the FJLT runs (d ≫ log n) and where it
// is skipped (d < k). The first row is build-highdim's input at the CLIs'
// cap: Algorithm 2 on the raw points would need r=1024 and more grid
// words than the cap, so it embeds only after the FJLT.
func TestDistributedEmbeddingIsEmbedMPCTree(t *testing.T) {
	for _, tc := range []struct {
		lattice, seed uint64
		n, d, delta   int
		wantFJLT      bool
	}{
		{lattice: 1, seed: 5, n: 256, d: 1024, delta: 1024, wantFJLT: true},
		{lattice: 3, seed: 11, n: 64, d: 200, delta: 128, wantFJLT: true},
		{lattice: 4, seed: 11, n: 96, d: 4, delta: 64, wantFJLT: false},
	} {
		pts := workload.UniformLattice(tc.lattice, tc.n, tc.d, tc.delta)
		opt := MPCOptions{Machines: 8, CapWords: 1 << 22, Seed: tc.seed}
		tree, info, err := EmbedMPC(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		if info.UsedFJLT != tc.wantFJLT {
			t.Fatalf("d=%d: UsedFJLT = %v, want %v", tc.d, info.UsedFJLT, tc.wantFJLT)
		}
		e, err := NewDistributedEmbedding(pts, opt)
		if err != nil {
			t.Fatalf("d=%d: %v", tc.d, err)
		}
		if got, want := treeHash(t, e.Tree), treeHash(t, tree); got != want {
			t.Errorf("d=%d: distributed tree %s, EmbedMPC tree %s", tc.d, got, want)
		}
	}
}

// With Resilient, the distributed build recovers from injected faults as
// EmbedMPC's does, to the fault-free tree.
func TestDistributedEmbeddingResilientBuild(t *testing.T) {
	pts := workload.UniformLattice(2, 64, 8, 64)
	opt := MPCOptions{Machines: 8, CapWords: 1 << 22, Seed: 7, Resilient: true}
	clean, err := NewDistributedEmbedding(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = UniformFaults(3, 0.05)
	e, err := NewDistributedEmbedding(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cluster.FaultStats().Injected() == 0 {
		t.Fatal("no fault injected; the test covers nothing")
	}
	if got, want := treeHash(t, e.Tree), treeHash(t, clean.Tree); got != want {
		t.Errorf("recovered tree %s, fault-free tree %s", got, want)
	}
}

// A resilient distributed embedding reads its path records once, inside
// the embed stage, and no fault-free query reads or copies them again.
func TestDistributedEmbeddingCopiesPathsOnce(t *testing.T) {
	pts := workload.UniformLattice(2, 64, 8, 64)
	e, err := NewDistributedEmbedding(pts, MPCOptions{Machines: 8, CapWords: 1 << 22, Seed: 7, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	resident := 0
	for m := 0; m < e.Cluster.Machines(); m++ {
		resident += mpc.WordsOf(e.Cluster.Store(m))
	}
	built := e.Cluster.Recovery()
	if built.CheckpointWords != resident || resident == 0 {
		t.Fatalf("embed read %d checkpoint words, the path records hold %d", built.CheckpointWords, resident)
	}
	for q := 0; q < 3; q++ {
		distributedAnswers(t, e)
	}
	if got := e.Cluster.Recovery(); got.CheckpointWords != built.CheckpointWords || got.RestoredWords != 0 {
		t.Fatalf("after 9 queries: %+v, after the embed: %+v", got, built)
	}
}

// Under Faults and Resilient, every query runs under the retry driver: the
// tree and the EMD, MST and densest-ball answers equal the fault-free
// run's bit for bit, and so do the cluster's meters after the queries,
// and some seed injects a fault during the queries.
func TestDistributedQueriesRetryUnderFaults(t *testing.T) {
	pts := workload.UniformLattice(2, 64, 200, 128)
	opt := MPCOptions{Machines: 8, CapWords: 1 << 22, Seed: 9, Resilient: true, MaxRetries: 40}
	clean, err := NewDistributedEmbedding(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantEMD, wantMST, wantBall := distributedAnswers(t, clean)
	wantMetrics := clean.Cluster.Metrics()
	queryFaults := 0
	for seed := uint64(1); seed <= 6; seed++ {
		opt.Faults = UniformFaults(seed, 0.05)
		e, err := NewDistributedEmbedding(pts, opt)
		if err != nil {
			t.Fatalf("fault seed %d: %v", seed, err)
		}
		if got, want := treeHash(t, e.Tree), treeHash(t, clean.Tree); got != want {
			t.Errorf("fault seed %d: tree %s, fault-free %s", seed, got, want)
		}
		before := e.Cluster.FaultStats().Injected()
		emd, mst, ball := distributedAnswers(t, e)
		queryFaults += e.Cluster.FaultStats().Injected() - before
		if emd != wantEMD || mst != wantMST || ball != wantBall {
			t.Errorf("fault seed %d: answers (%v, %v, %+v), fault-free (%v, %v, %+v)", seed, emd, mst, ball, wantEMD, wantMST, wantBall)
		}
		if got := e.Cluster.Metrics(); got != wantMetrics {
			t.Errorf("fault seed %d: meters after the queries %+v, fault-free %+v", seed, got, wantMetrics)
		}
	}
	if queryFaults == 0 {
		t.Fatal("no fault injected during a query; the retry path went untested")
	}
}
