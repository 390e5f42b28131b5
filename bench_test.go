// Benchmark harness: one benchmark per experiment (table/figure) of the
// paper, plus end-to-end pipeline micro-benchmarks. Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkExp* iteration executes the corresponding experiment in
// Quick mode — the wall-clock and allocation profile of regenerating that
// claim. The full-size tables recorded in EXPERIMENTS.md come from
// cmd/mpcbench without -quick.
package mpctree

import (
	"math"
	"math/rand"
	"testing"

	"mpctree/internal/experiments"
	"mpctree/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Config{Quick: true, Seed: benchSeeds[i%len(benchSeeds)]})
		if err != nil {
			// The benchmark seeds are not the test suite's, so rare
			// statistical events (a coverage failure at probability δ) can
			// surface as the algorithm's own reported failure, not a bench
			// defect. Correctness at fixed seeds is pinned by the tests.
			b.Logf("%s: run reported %v (statistical at this seed)", id, err)
			continue
		}
		if fails := res.Failed(); len(fails) > 0 {
			b.Logf("%s: %d shape checks failed at this seed (statistical): %v", id, len(fails), fails)
		}
	}
}

func BenchmarkExpE01Fig1(b *testing.B)        { benchExperiment(b, "E01-Fig1") }
func BenchmarkExpE02Thm2(b *testing.B)        { benchExperiment(b, "E02-Thm2") }
func BenchmarkExpE03Lem1(b *testing.B)        { benchExperiment(b, "E03-Lem1") }
func BenchmarkExpE04Lem45(b *testing.B)       { benchExperiment(b, "E04-Lem45") }
func BenchmarkExpE05Lem67(b *testing.B)       { benchExperiment(b, "E05-Lem67") }
func BenchmarkExpE06Thm3(b *testing.B)        { benchExperiment(b, "E06-Thm3") }
func BenchmarkExpE07Thm1(b *testing.B)        { benchExperiment(b, "E07-Thm1") }
func BenchmarkExpE08MST(b *testing.B)         { benchExperiment(b, "E08-MST") }
func BenchmarkExpE09EMD(b *testing.B)         { benchExperiment(b, "E09-EMD") }
func BenchmarkExpE10DensestBall(b *testing.B) { benchExperiment(b, "E10-DB") }
func BenchmarkExpE11Ablate(b *testing.B)      { benchExperiment(b, "E11-Ablate") }
func BenchmarkExpE12Cluster(b *testing.B)     { benchExperiment(b, "E12-Cluster") }
func BenchmarkExpE13Cycle(b *testing.B)       { benchExperiment(b, "E13-Cycle") }
func BenchmarkExpE14KMedian(b *testing.B)     { benchExperiment(b, "E14-KMedian") }
func BenchmarkExpE15Cor1MPC(b *testing.B)     { benchExperiment(b, "E15-Cor1MPC") }

// End-to-end micro-benchmarks of the public API.

func BenchmarkEmbedSequential(b *testing.B) {
	pts := workload.UniformLattice(1, 512, 8, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Embed(pts, Options{Seed: benchSeeds[i%len(benchSeeds)]}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedMPCPipeline(b *testing.B) {
	pts := workload.UniformLattice(2, 128, 256, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EmbedMPC(pts, MPCOptions{
			Machines: 8, CapWords: 1 << 22, Seed: benchSeeds[i%len(benchSeeds)],
			Xi: 0.3, CK: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedMPCHighdim times one EmbedMPC at perfbench's
// build-highdim shape: 256 lattice points in d = 1024, Δ = 1024, 8
// machines, a 1<<22-word cap. The FJLT runs, and the root paths search
// 124 buckets of k = 2 over 21 levels.
func BenchmarkEmbedMPCHighdim(b *testing.B) {
	pts := workload.UniformLattice(9, 256, 1024, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EmbedMPC(pts, MPCOptions{
			Machines: 8, CapWords: 1 << 22, Seed: benchSeeds[i%len(benchSeeds)],
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeDistanceQuery(b *testing.B) {
	pts := workload.UniformLattice(3, 1024, 6, 4096)
	tree, _, err := Embed(pts, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tree.Dist(i%1024, (i*31+7)%1024)
	}
	_ = sink
}

// benchSink keeps the kernels' results live.
var benchSink int

// serveTrees embeds perfbench's serve shape — 4096 lattice points in
// d = 2, Δ = 1024, 8 machines, a 1<<22-word cap — once per bench seed.
func serveTrees(b *testing.B) []*Tree {
	b.Helper()
	pts := workload.UniformLattice(1, 4096, 2, 1024)
	trees := make([]*Tree, len(benchSeeds))
	for i, s := range benchSeeds {
		t, _, err := EmbedMPC(pts, MPCOptions{Machines: 8, CapWords: 1 << 22, Seed: s})
		if err != nil {
			b.Fatal(err)
		}
		trees[i] = t
	}
	return trees
}

// BenchmarkTreeKNN times KNN on serve-shaped trees. One op is 64
// queries: points stride through each tree and k cycles 1…8, so even a
// one-iteration run (benchdiff -quick) reads warm state.
func BenchmarkTreeKNN(b *testing.B) {
	trees := serveTrees(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := trees[i%len(trees)]
		for j := 0; j < 64; j++ {
			q := i*64 + j
			benchSink += len(t.KNN(q*7919%t.NumPoints(), 1+q%8))
		}
	}
}

// BenchmarkTreeCut times CutAtScale on serve-shaped trees. One op is 8
// cuts at scales drawn log-uniformly from [1, 1e6].
func BenchmarkTreeCut(b *testing.B) {
	trees := serveTrees(b)
	r := rand.New(rand.NewSource(1))
	scales := make([]float64, 256)
	for i := range scales {
		scales[i] = math.Pow(10, 6*r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := trees[i%len(trees)]
		for j := 0; j < 8; j++ {
			benchSink += len(t.CutAtScale(scales[(i*8+j)%len(scales)]))
		}
	}
}

func BenchmarkApproxMST(b *testing.B) {
	pts := workload.GaussianClusters(4, 1024, 4, 8, 32, 4096)
	tree, _, err := Embed(pts, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproxMST(pts, tree)
	}
}

func BenchmarkApproxEMD(b *testing.B) {
	pts := workload.UniformLattice(5, 2048, 4, 4096)
	tree, _, err := Embed(pts, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mu := make([]float64, 2048)
	nu := make([]float64, 2048)
	for i := range mu {
		mu[i] = float64(i % 7)
		nu[(i*13+5)%2048] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproxEMD(tree, mu, nu)
	}
}

func BenchmarkFJLTSequential(b *testing.B) {
	pts := workload.UniformLattice(6, 64, 2048, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FJLT(pts, FJLTOptions{Xi: 0.3, Seed: benchSeeds[i%len(benchSeeds)]}); err != nil {
			b.Fatal(err)
		}
	}
}
