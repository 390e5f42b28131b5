package fjlt

import (
	"testing"

	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// TestApplyAllAllocCeiling pins ApplyAll's heap-object count per batch:
// one output header slice, and per shard one scratch buffer and one
// output allocation the shard's points are sliced from. Allocating a
// scratch and an output vector per point cost 2·n+O(1); the ceiling is
// set to catch any return of per-point allocation while tolerating
// runtime incidentals.
func TestApplyAllAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	pts := workload.UniformLattice(3, 96, 200, 128)
	tr, err := New(len(pts), len(pts[0]), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out []vec.Point
	allocs := testing.AllocsPerRun(10, func() {
		out = tr.ApplyAll(pts)
	})
	if len(out) != len(pts) {
		t.Fatalf("lost outputs: %d != %d", len(out), len(pts))
	}
	// Measured 7 allocs/op for these 96 points (2·n+O(1) would be 190+).
	const ceiling = 40
	if allocs > ceiling {
		t.Fatalf("ApplyAll allocates %.0f objects per 200-point batch, ceiling %d", allocs, ceiling)
	}
	t.Logf("ApplyAll allocs/batch = %.0f (ceiling %d)", allocs, ceiling)
}
