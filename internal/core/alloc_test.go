package core

import (
	"testing"

	"mpctree/internal/fjlt"
	"mpctree/internal/mpc"
)

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
