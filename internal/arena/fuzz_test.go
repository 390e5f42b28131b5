package arena

import (
	"testing"

	"mpctree/internal/rng"
)

// FuzzArenaNoStateBleed drives a random schedule of carves, writes and
// Resets and checks the two invariants that make arena reuse safe:
// every carve is zeroed at birth, and writes through one live carve are
// never observable through another carve issued afterwards in the same
// cycle. A violation here is exactly the "state bleed between consecutive
// embeds reusing one arena" failure mode the embedding pipeline must never
// exhibit.
func FuzzArenaNoStateBleed(f *testing.F) {
	f.Add(uint64(1), uint(8))
	f.Add(uint64(42), uint(100))
	f.Add(uint64(0xdead), uint(3))
	f.Fuzz(func(t *testing.T, seed uint64, steps uint) {
		if steps > 400 {
			steps = 400
		}
		r := rng.New(seed)
		a := New()
		type carve struct {
			f    []float64
			i    []int64
			mark byte
		}
		var live []carve
		check := func(c carve) {
			for _, v := range c.f {
				if v != float64(c.mark) {
					t.Fatalf("float carve corrupted: got %v want %d", v, c.mark)
				}
			}
			for _, v := range c.i {
				if v != int64(c.mark) {
					t.Fatalf("int carve corrupted: got %v want %d", v, c.mark)
				}
			}
		}
		for s := uint(0); s < steps; s++ {
			switch r.Intn(10) {
			case 0: // cycle boundary: verify everything, then reset
				for _, c := range live {
					check(c)
				}
				live = live[:0]
				a.Reset()
			default: // carve a random mix and stamp it
				mark := byte(1 + r.Intn(250))
				c := carve{
					f:    a.Floats(r.Intn(300)),
					i:    a.Ints(r.Intn(300)),
					mark: mark,
				}
				// Carves must be zeroed at birth even after Reset reuse.
				for _, v := range c.f {
					if v != 0 {
						t.Fatalf("reused float slab not re-zeroed (step %d)", s)
					}
				}
				for _, v := range c.i {
					if v != 0 {
						t.Fatalf("reused int slab not re-zeroed (step %d)", s)
					}
				}
				for j := range c.f {
					c.f[j] = float64(mark)
				}
				for j := range c.i {
					c.i[j] = int64(mark)
				}
				live = append(live, c)
				// All earlier carves of this cycle must be untouched.
				for _, prev := range live {
					check(prev)
				}
			}
		}
	})
}
