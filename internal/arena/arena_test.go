package arena

import (
	"testing"
)

func TestCarvesAreZeroedAndDisjoint(t *testing.T) {
	a := New()
	f1 := a.Floats(10)
	f2 := a.Floats(10)
	i1 := a.Ints(5)
	for _, v := range f1 {
		if v != 0 {
			t.Fatal("Floats not zeroed")
		}
	}
	for i := range f1 {
		f1[i] = 1
	}
	for _, v := range f2 {
		if v != 0 {
			t.Fatal("writing f1 leaked into f2")
		}
	}
	for i := range i1 {
		i1[i] = int64(i) + 7
	}
	for _, v := range f1 {
		if v != 1 {
			t.Fatal("f1 clobbered by later carves")
		}
	}
}

func TestCarveCapacityIsExact(t *testing.T) {
	a := New()
	f := a.Floats(4)
	if cap(f) != 4 {
		t.Fatalf("cap = %d, want 4 (full slice expression)", cap(f))
	}
	// An append must reallocate, never extend into the slab.
	g := append(f, 99)
	h := a.Floats(4)
	for _, v := range h {
		if v != 0 {
			t.Fatalf("append on a carve clobbered the next carve: %v", h)
		}
	}
	_ = g
	if i := a.Ints(3); cap(i) != 3 {
		t.Fatalf("Ints cap = %d, want 3", cap(i))
	}
}

func TestOversizedCarveGetsDedicatedAllocation(t *testing.T) {
	a := New()
	big := a.Floats(maxSlabWords) // > maxSlabWords/2 → dedicated
	if len(big) != maxSlabWords {
		t.Fatalf("len = %d", len(big))
	}
	small := a.Floats(8)
	big[0] = 42
	if small[0] != 0 {
		t.Fatal("oversized carve shares memory with slab carve")
	}
}

func TestResetReusesSlabsAndRezeroes(t *testing.T) {
	a := New()
	const n = 64
	for i := 0; i < 4; i++ {
		f := a.Floats(n)
		for j := range f {
			f[j] = float64(i*1000 + j)
		}
	}
	allocsBefore := testing.AllocsPerRun(50, func() {
		a.Reset()
		for i := 0; i < 4; i++ {
			f := a.Floats(n)
			for _, v := range f {
				if v != 0 {
					t.Fatal("Reset did not re-zero slab memory")
				}
			}
			for j := range f {
				f[j] = -1
			}
		}
	})
	// Steady-state scratch cycles must be allocation-free: slabs recycle.
	if allocsBefore > 0 {
		t.Fatalf("steady-state Reset/carve cycle allocates %v objects per run", allocsBefore)
	}
}

func TestResetCrossesSlabBoundaries(t *testing.T) {
	a := New()
	// Carve more than one slab's worth, then reset and do it again: the
	// retained slabs must be reused, not abandoned.
	carveAll := func(mark float64) [][]float64 {
		var out [][]float64
		for w := 0; w < 3*maxSlabWords; w += 128 {
			f := a.Floats(128)
			for j := range f {
				f[j] = mark
			}
			out = append(out, f)
		}
		return out
	}
	first := carveAll(1)
	for _, f := range first {
		for _, v := range f {
			if v != 1 {
				t.Fatal("pre-reset content wrong")
			}
		}
	}
	a.Reset()
	second := carveAll(2)
	for _, f := range second {
		for _, v := range f {
			if v != 2 {
				t.Fatal("post-reset content wrong")
			}
		}
	}
}

// TestSteadyStateAllocationFree pins the package's whole point: after
// warm-up, a scratch-mode cycle of mixed carves costs zero heap objects.
func TestSteadyStateAllocationFree(t *testing.T) {
	a := New()
	cycle := func() {
		a.Reset()
		for i := 0; i < 32; i++ {
			_ = a.Floats(64)
			_ = a.Ints(24)
		}
	}
	cycle() // warm-up allocates the slabs
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("steady-state cycle allocates %v objects", allocs)
	}
}
