package core

import (
	"testing"

	"mpctree/internal/fjlt"
	"mpctree/internal/mpc"
	"mpctree/internal/workload"
)

// TestEmbedAllocCeiling pins the sequential Algorithm 1's heap-object
// count on BenchmarkEmbedSequentialWorkers's input. The ceiling is the
// count measured while Embed and NewEmbedder still ran separate level
// loops over every point; the one build, which partitions only the points
// still sharing a cluster and joins each hybrid id once, reads ~10.6k.
func TestEmbedAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	pts := workload.UniformLattice(4, 384, 16, 4096)
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := Embed(pts, Options{Method: MethodHybrid, R: 4, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 12845
	if allocs > ceiling {
		t.Fatalf("Embed allocates %.0f objects per run, ceiling %d", allocs, ceiling)
	}
	t.Logf("Embed allocs/run = %.0f (ceiling %d)", allocs, ceiling)
}

// TestEmbedPipelineAllocCeiling pins the full pipeline's heap-object
// count for one fixed configuration — the third leg of the PR-7 alloc
// gate (DistFWHT and fjlt.ApplyAll have their own ceilings in their
// packages). The count includes cluster construction, the FJLT stage,
// and the embedding stage; before the arena work this configuration
// allocated on the order of u·r·levels + several objects per point per
// round (hundreds of thousands of objects), so the ceiling is set far
// below that regime while leaving headroom over the measured value for
// runtime incidentals and map-growth jitter.
func TestEmbedPipelineAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	pts := latticePts(t, 1, 48, 300, 32) // d=300 ≫ k: the FJLT stage engages
	opt := PipelineOptions{Xi: 0.3, FJLT: fjlt.Options{CK: 1}, Seed: 3}
	allocs := testing.AllocsPerRun(3, func() {
		c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 22})
		if _, _, err := EmbedPipeline(c, pts, opt); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~10.2k objects per run (48 points, d=300, 4 machines).
	const ceiling = 16000
	if allocs > ceiling {
		t.Fatalf("EmbedPipeline allocates %.0f objects per run, ceiling %d", allocs, ceiling)
	}
	t.Logf("EmbedPipeline allocs/run = %.0f (ceiling %d)", allocs, ceiling)
}
