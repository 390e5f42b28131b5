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
	"testing"

	"mpctree/internal/experiments"
	"mpctree/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Config{Quick: true, Seed: uint64(i) + 1})
		if err != nil {
			// Benchmarks sweep arbitrary seeds, so rare statistical events
			// (a coverage failure at probability δ) can surface as the
			// algorithm's own reported failure, not a bench defect.
			// Correctness at fixed seeds is pinned by the test suite.
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
		if _, _, err := Embed(pts, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedMPCPipeline(b *testing.B) {
	pts := workload.UniformLattice(2, 128, 256, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EmbedMPC(pts, MPCOptions{
			Machines: 8, CapWords: 1 << 22, Seed: uint64(i) + 1,
			Xi: 0.3, CK: 1,
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
		if _, err := FJLT(pts, FJLTOptions{Xi: 0.3, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
