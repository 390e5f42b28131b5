// Width-scaling benchmarks for the deterministic data-parallel kernels.
// Every benchmark runs the same computation at GOMAXPROCS=1 and
// GOMAXPROCS=8, named workers=1 and workers=8 — the two variants are
// bit-identical by the par contract, so the only thing that may differ is
// the wall clock. cmd/benchdiff runs this file plus the DistFWHT
// benchmark, records the numbers in a BENCH_*.json report, and fails on
// regressions against the committed baseline.
package mpctree

import (
	"fmt"
	"runtime"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/fjlt"
	"mpctree/internal/hst"
	"mpctree/internal/stats"
	"mpctree/internal/workload"
)

// workerCounts are the GOMAXPROCS settings benchdiff compares. With more
// settings than cores the larger one measures scheduling overhead rather
// than a speedup; benchdiff records the machine's GOMAXPROCS alongside the
// numbers so the comparison is interpretable.
var workerCounts = []int{1, 8}

// benchSeeds is the seed list the embedding benchmarks cycle through, so
// every b.N, and every repeat, embeds the same mix of seeds instead of
// seeds 1..b.N.
var benchSeeds = []uint64{1, 2, 3, 4}

// runAtWidths runs body as one sub-benchmark per workerCounts entry, with
// GOMAXPROCS set to that entry for the sub-benchmark's duration.
func runAtWidths(b *testing.B, body func(b *testing.B)) {
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			body(b)
		})
	}
}

func BenchmarkFJLTApplyAllWorkers(b *testing.B) {
	pts := workload.UniformLattice(2, 128, 1024, 1024)
	runAtWidths(b, func(b *testing.B) {
		tr, err := fjlt.New(len(pts), len(pts[0]), fjlt.Options{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.ApplyAll(pts)
		}
	})
}

func BenchmarkEmbedSequentialWorkers(b *testing.B) {
	pts := workload.UniformLattice(4, 384, 16, 4096)
	runAtWidths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, err := core.Embed(pts, core.Options{
				Method: core.MethodHybrid, R: 4, Seed: benchSeeds[i%len(benchSeeds)],
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEmbedPipelineWorkers(b *testing.B) {
	pts := workload.UniformLattice(5, 64, 256, 512)
	runAtWidths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, err := EmbedMPC(pts, MPCOptions{
				Machines: 8, CapWords: 1 << 22, Seed: benchSeeds[i%len(benchSeeds)],
				Xi: 0.3, CK: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMeasureDistortionWorkers(b *testing.B) {
	pts := workload.UniformLattice(6, 160, 8, 4096)
	runAtWidths(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := stats.MeasureDistortion(pts, 4, func(seed uint64) (*hst.Tree, error) {
				t, _, err := core.Embed(pts, core.Options{Method: core.MethodGrid, Seed: seed*31 + benchSeeds[i%len(benchSeeds)]})
				return t, err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
