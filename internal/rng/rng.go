// Package rng provides a small, fast, splittable pseudo-random number
// generator used by every randomized component in this repository.
//
// Reproducibility is a first-class requirement: the MPC simulator runs many
// logical machines concurrently, and experiment tables must not depend on
// goroutine scheduling. All randomness therefore flows from a single root
// seed through Split, which derives statistically independent substreams.
// Machine i always consumes substream i, so results are identical for any
// machine count or interleaving.
//
// The generator is xoshiro256** seeded via SplitMix64, the combination
// recommended by Blackman and Vigna. It is not cryptographically secure and
// must not be used for anything security sensitive.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value is
// not valid; construct with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
	// cached spare Gaussian from the polar method
	spare    float64
	hasSpare bool
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used both for seeding xoshiro and for deriving split streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewHashed returns a generator seeded from a byte-serial FNV-1a hash of
// the given values. Use this — not ad-hoc XOR/multiply combinations — to
// derive independent streams from structured coordinates such as
// (seed, level, bucket, attempt): XOR-of-multiplies leaves enough linear
// structure across a parameter sweep that downstream low-dimensional
// projections can exhibit lattice artifacts (dead zones in shift space),
// which we observed empirically; the byte-serial hash does not.
func NewHashed(vals ...uint64) *RNG {
	return New(fnvFold(fnvOffset, vals))
}

// Reseed re-initialises r in place from the same byte-serial FNV-1a hash
// NewHashed uses, producing a bitwise-identical stream without allocating:
// the receiver is caller-owned (typically a loop-local value) and the
// variadic slice never escapes, so hot loops that derive one generator per
// grid pay zero heap objects.
func (r *RNG) Reseed(vals ...uint64) {
	r.seed(fnvFold(fnvOffset, vals))
}

// Prefix is the state of the byte-serial hash NewHashed and Reseed use
// after a leading run of values. ReseedFrom continues it with the rest,
// so a loop that derives many generators from value lists sharing a
// prefix hashes the prefix once.
type Prefix struct{ h uint64 }

// HashPrefix hashes the leading values of a NewHashed/Reseed list.
func HashPrefix(vals ...uint64) Prefix { return Prefix{fnvFold(fnvOffset, vals)} }

// ReseedFrom re-initialises r as Reseed does from the prefix's values
// followed by vals: r.ReseedFrom(HashPrefix(a, b), c) and
// r.Reseed(a, b, c) give the same stream, bit for bit.
func (r *RNG) ReseedFrom(p Prefix, vals ...uint64) {
	r.seed(fnvFold(p.h, vals))
}

const fnvOffset = 14695981039346656037 // FNV-64a offset basis

// fnvFold continues the FNV-1a hash h over vals, eight little-endian
// bytes each.
func fnvFold(h uint64, vals []uint64) uint64 {
	const prime = 1099511628211
	for _, v := range vals {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

func (r *RNG) seed(seed uint64) {
	sm := seed
	*r = RNG{}
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start in the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives a new, statistically independent generator from r.
// The derivation consumes one output of r, so successive Split calls
// yield distinct streams. Splitting is the only sanctioned way to hand
// randomness to a concurrent worker.
func (r *RNG) Split() *RNG {
	// Mix a fresh output through SplitMix64 so that the child stream's
	// seed is decorrelated from the parent's state words.
	seed := r.Uint64()
	_ = splitmix64(&seed)
	return New(seed)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// UniformRange returns a uniform float64 in [lo, hi).
func (r *RNG) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + (aLo*bHi+t&mask)>>32 + t>>32
	return hi, lo
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Normal returns a standard Gaussian variate using Marsaglia's polar
// method, caching the spare deviate.
func (r *RNG) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// NormalScaled returns a Gaussian with mean 0 and the given standard
// deviation.
func (r *RNG) NormalScaled(sigma float64) float64 { return sigma * r.Normal() }

// UnitVector fills dst with a uniformly random point on the unit sphere
// S^{d-1}, d = len(dst). Used by the Lemma 4/5 experiments.
func (r *RNG) UnitVector(dst []float64) {
	for {
		var norm2 float64
		for i := range dst {
			dst[i] = r.Normal()
			norm2 += dst[i] * dst[i]
		}
		if norm2 > 0 {
			inv := 1 / math.Sqrt(norm2)
			for i := range dst {
				dst[i] *= inv
			}
			return
		}
	}
}

// BallVector fills dst with a uniformly random point in the unit ball B^d.
func (r *RNG) BallVector(dst []float64) {
	r.UnitVector(dst)
	// Radius of a uniform ball point is U^{1/d}.
	rad := math.Pow(r.Float64(), 1/float64(len(dst)))
	for i := range dst {
		dst[i] *= rad
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
