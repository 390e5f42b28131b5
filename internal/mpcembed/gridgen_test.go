package mpcembed

import (
	"math"
	"testing"

	"mpctree/internal/grid"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// The parallel grid generation in Embed reseeds a stack RNG per grid and
// samples the shift through grid.NewInto. This test pins it
// to the reference construction, grid.New over rng.NewHashed with the
// same arguments: for every (level, bucket, attempt) the two must agree to
// the bit.
func TestGridGenerationMatchesDeriveGrid(t *testing.T) {
	const seed = 0xDECAF
	for _, dim := range []int{1, 3, 8, 17} {
		for lev := 1; lev <= 4; lev++ {
			cell := 4 * 100.0 / math.Pow(2, float64(lev))
			for j := 0; j < 3; j++ {
				for uu := 0; uu < 5; uu++ {
					want := grid.New(rng.NewHashed(seed, 0x9d1d, uint64(lev), uint64(j), uint64(uu)), dim, cell)
					var rg rng.RNG
					rg.Reseed(seed, 0x9d1d, uint64(lev), uint64(j), uint64(uu))
					got := grid.NewInto(&rg, make(vec.Point, dim), cell)
					if got.Dim != want.Dim || got.Cell != want.Cell {
						t.Fatalf("(%d,%d,%d,dim=%d): shape (%d,%v) != (%d,%v)",
							lev, j, uu, dim, got.Dim, got.Cell, want.Dim, want.Cell)
					}
					for i := range want.Shift {
						if math.Float64bits(got.Shift[i]) != math.Float64bits(want.Shift[i]) {
							t.Fatalf("(%d,%d,%d,dim=%d): shift[%d] = %x, reference %x",
								lev, j, uu, dim, i, math.Float64bits(got.Shift[i]), math.Float64bits(want.Shift[i]))
						}
					}
				}
			}
		}
	}
}

// Reseed must leave no state behind: reseeding a used generator and
// reseeding a fresh one with the same arguments give the same stream.
func TestReseedEquivalentToNewHashed(t *testing.T) {
	var used rng.RNG
	used.Reseed(1, 2, 3)
	for i := 0; i < 100; i++ {
		used.Uint64() // dirty the state
	}
	used.Reseed(7, 8, 9)
	fresh := rng.NewHashed(7, 8, 9)
	for i := 0; i < 64; i++ {
		if a, b := used.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %x != NewHashed %x", i, a, b)
		}
	}
}
