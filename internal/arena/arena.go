// Package arena provides bump allocators for the hot kernels: the
// distributed Walsh–Hadamard transform, the FJLT projection, and the
// Algorithm-2 grid/path machinery allocate millions of tiny payload slices
// ([]float64 ball shifts, []int64 record coordinates) per embedding, and
// the Go allocator charges one heap object for each. An Arena carves those
// payloads out of large slabs instead — one heap object per slab — cutting
// allocations on the embedding hot path by orders of magnitude without
// changing a single computed bit.
//
// # Ownership rules
//
// There are exactly two sanctioned usage modes, and every call site must
// decide which one it is in:
//
//   - Escape mode: carved slices are handed to long-lived owners (record
//     payloads delivered into cluster stores, output vectors returned to
//     the caller). The arena is used purely to amortise allocation count;
//     Reset is NEVER called, and the garbage collector reclaims each slab
//     when the last carved slice referencing it dies. This mode is always
//     safe.
//
//   - Scratch mode: carved slices are private intermediates that
//     provably do not outlive one phase (per-level path scratch, butterfly
//     staging buffers). The owner calls Reset at the phase boundary and
//     the slabs are reused. Calling Reset while any previously carved
//     slice is still reachable is a state-bleed bug; the fuzz harness in
//     this package hunts exactly that contract violation.
//
// An Arena is NOT safe for concurrent use. A data-parallel fan-out takes
// one arena.New() per shard body, so each goroutine bumps its own slabs;
// since carved contents are fully written by their owner before being
// read, arena placement never changes computed values.
package arena

// Slab sizing, in elements. Growth is geometric — the first slab is small
// so light users (one machine's worth of one small round) don't pay 64 KiB
// of slack and zeroing, and each further slab doubles up to the cap so
// heavy users (grid generation: hundreds of thousands of carves) settle at
// a handful of large slabs.
const (
	minSlabWords = 512
	maxSlabWords = 8192
)

// slabs is one typed slab chain: all allocated slabs at full size, with a
// bump cursor (slab index, offset). Reset just rewinds the cursor; slabs
// retained from before a Reset keep their original (possibly smaller)
// sizes and are walked through again.
type slabs[T any] struct {
	all  [][]T
	cur  int // index of the active slab in all
	off  int // carve offset within the active slab
	next int // size of the next slab to allocate (doubles up to max)
	max  int // size cap; carves > max/2 get dedicated allocations
}

func (s *slabs[T]) carve(n int) []T {
	if n > s.max/2 {
		// Oversized carves get dedicated allocations: slab slack would
		// otherwise exceed the payload. make() zeroes.
		return make([]T, n)
	}
	// Advance past retained slabs too full (or, after a Reset, too small)
	// to hold this carve.
	for s.cur < len(s.all) && s.off+n > len(s.all[s.cur]) {
		s.cur++
		s.off = 0
	}
	if s.cur == len(s.all) {
		sz := s.next
		for sz < n {
			sz *= 2
		}
		s.all = append(s.all, make([]T, sz))
		if s.next < s.max {
			s.next *= 2
		}
		s.off = 0
	}
	out := s.all[s.cur][s.off : s.off+n : s.off+n]
	s.off += n
	clear(out) // re-zero: the slab may be a Reset reuse
	return out
}

func (s *slabs[T]) reset() { s.cur, s.off = 0, 0 }

// Arena is a bump allocator over typed slabs. Use New to construct; the
// zero value is not valid. Not safe for concurrent use.
type Arena struct {
	floats slabs[float64]
	ints   slabs[int64]
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{
		floats: slabs[float64]{next: minSlabWords, max: maxSlabWords},
		ints:   slabs[int64]{next: minSlabWords, max: maxSlabWords},
	}
}

// Floats returns a zeroed []float64 of length and capacity n carved from
// the current slab. The full-slice capacity guarantees an append can never
// clobber a neighbouring carve.
func (a *Arena) Floats(n int) []float64 { return a.floats.carve(n) }

// Ints returns a zeroed []int64 of length and capacity n carved from the
// current slab.
func (a *Arena) Ints(n int) []int64 { return a.ints.carve(n) }

// Reset makes every retained slab reusable (scratch mode). The caller
// asserts that nothing carved since the previous Reset is still
// referenced; carves after Reset return re-zeroed memory.
func (a *Arena) Reset() {
	a.floats.reset()
	a.ints.reset()
}
