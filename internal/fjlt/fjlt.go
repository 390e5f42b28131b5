// Package fjlt implements the Fast Johnson–Lindenstrauss Transform of
// Ailon and Chazelle, sequentially and in the MPC model (Section 5 /
// Algorithm 3 / Theorem 3 of the paper).
//
// The transform is φ(x) = k^{-1/2}·P·H·D·x where
//
//   - D is a d×d diagonal of independent uniform ±1 signs,
//   - H is the normalised d×d Walsh–Hadamard matrix (d padded to a power
//     of two; padding with zero coordinates changes no distance),
//   - P is a sparse k×d matrix whose entries are 0 with probability 1−q
//     and N(0, q^{-1}) otherwise, with sparsity q = min(ln²n/d, 1),
//   - k = Θ(ξ^{-2}·ln n) output dimensions.
//
// (The paper's Theorem 3 writes φ = k^{-1}PHD; k^{-1/2} is the scaling
// that actually makes E‖φ(x)‖² = ‖x‖², as the P-row second-moment
// computation shows, so we use it and note the discrepancy here.)
//
// All randomness in D and P is a pure function of (seed, position), so the
// sequential and distributed implementations produce the same transform
// bit-for-bit given the same seed — machines need only the O(1)-word seed,
// never the matrices.
package fjlt

import (
	"fmt"
	"math"

	"mpctree/internal/hadamard"
	"mpctree/internal/par"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// Params fixes the shape of a transform.
type Params struct {
	D     int     // input dimension (as supplied)
	DPad  int     // power-of-two padded dimension
	K     int     // output dimension
	Q     float64 // sparsity of P
	Seed  uint64
	Scale float64 // k^{-1/2}
}

// Options tunes parameter selection in New.
type Options struct {
	Xi   float64 // distortion parameter ξ ∈ (0, 0.5); default 0.3
	CK   float64 // constant in k = CK·ξ^{-2}·ln n; default 4
	Seed uint64
}

// NewParams chooses FJLT parameters for n points in dimension d.
func NewParams(n, d int, opt Options) (Params, error) {
	if n < 1 || d < 1 {
		return Params{}, fmt.Errorf("fjlt: bad shape n=%d d=%d", n, d)
	}
	xi := opt.Xi
	if xi == 0 {
		xi = 0.3
	}
	if xi <= 0 || xi >= 0.5 {
		return Params{}, fmt.Errorf("fjlt: xi=%v out of (0, 0.5)", xi)
	}
	ck := opt.CK
	if ck == 0 {
		ck = 4
	}
	dPad := hadamard.NextPow2(d)
	ln := math.Log(float64(n) + 1)
	k := int(math.Ceil(ck * ln / (xi * xi)))
	if k < 1 {
		k = 1
	}
	q := ln * ln / float64(dPad)
	if q > 1 {
		q = 1
	}
	return Params{D: d, DPad: dPad, K: k, Q: q, Seed: opt.Seed, Scale: 1 / math.Sqrt(float64(k))}, nil
}

// SignAt returns the D diagonal entry (+1/−1) for coordinate i — a pure
// function of (seed, i) shared by the sequential and MPC paths.
func SignAt(seed uint64, i int) float64 {
	h := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h&1 == 1 {
		return 1
	}
	return -1
}

// PEntry is one nonzero of the sparse projection matrix P.
type PEntry struct {
	Row int     // output coordinate in [0, K)
	Col int     // input coordinate in [0, DPad)
	Val float64 // N(0, 1/q) variate
}

// PEntriesForColBlock deterministically generates the nonzeros of P whose
// columns lie in [col0, col0+width): the Bernoulli(q) process is walked
// with geometric gaps from an rng substream derived from (seed, col0), so
// any machine can generate its block without communication and disjoint
// blocks use independent streams.
func PEntriesForColBlock(p Params, col0, width int) []PEntry {
	var r rng.RNG
	r.Reseed(p.Seed, 0xF17E, uint64(col0))
	total := p.K * width
	var out []PEntry
	sigma := 1 / math.Sqrt(p.Q)
	if p.Q >= 1 {
		for pos := 0; pos < total; pos++ {
			out = append(out, PEntry{Row: pos / width, Col: col0 + pos%width, Val: r.NormalScaled(sigma)})
		}
		return out
	}
	logq := math.Log1p(-p.Q)
	pos := -1
	for {
		gap := int(math.Floor(math.Log(1-r.Float64()) / logq))
		pos += gap + 1
		if pos >= total {
			return out
		}
		out = append(out, PEntry{Row: pos / width, Col: col0 + pos%width, Val: r.NormalScaled(sigma)})
	}
}

// NNZ counts the nonzeros of P for the whole matrix under blockC-wide
// column blocks (the layout both implementations use).
func NNZ(p Params, blockC int) int {
	n := 0
	for c0 := 0; c0 < p.DPad; c0 += blockC {
		n += len(PEntriesForColBlock(p, c0, blockC))
	}
	return n
}

// Transform is a materialised sequential FJLT.
type Transform struct {
	P       Params
	blockC  int
	entries []PEntry
}

// New builds a transform for n points of dimension d.
func New(n, d int, opt Options) (*Transform, error) {
	p, err := NewParams(n, d, opt)
	if err != nil {
		return nil, err
	}
	return FromParams(p), nil
}

// DefaultBlockC returns the column block width used to shard P's
// generation: near √dPad, clamped to [1, dPad].
func DefaultBlockC(dPad int) int {
	b := hadamard.NextPow2(int(math.Sqrt(float64(dPad))))
	if b > dPad {
		b = dPad
	}
	if b < 1 {
		b = 1
	}
	return b
}

// FromParams materialises the transform for exact parameter control. The
// per-block entry streams are independent by construction (each block
// reseeds from (seed, col0)), so generation fans out over GOMAXPROCS and
// the blocks are concatenated in column order — the same entry sequence
// the serial loop produced.
func FromParams(p Params) *Transform {
	blockC := DefaultBlockC(p.DPad)
	nBlocks := (p.DPad + blockC - 1) / blockC
	perBlock := make([][]PEntry, nBlocks)
	par.For(nBlocks, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			perBlock[b] = PEntriesForColBlock(p, b*blockC, blockC)
		}
	})
	total := 0
	for _, es := range perBlock {
		total += len(es)
	}
	entries := make([]PEntry, 0, total)
	for _, es := range perBlock {
		entries = append(entries, es...)
	}
	return &Transform{P: p, blockC: blockC, entries: entries}
}

// Apply maps one point to k dimensions.
func (t *Transform) Apply(x vec.Point) vec.Point {
	y := make([]float64, t.P.DPad)
	z := make(vec.Point, t.P.K)
	t.applyInto(x, y, z)
	return z
}

// applyInto runs one transform with caller-provided buffers: y is DPad
// scratch (overwritten entirely, any prior contents irrelevant), z is the
// K-dimensional output. Identical float op sequence to the historical
// Apply, so results are bitwise unchanged.
func (t *Transform) applyInto(x vec.Point, y []float64, z vec.Point) {
	if len(x) != t.P.D {
		panic(fmt.Sprintf("fjlt: point dimension %d, transform expects %d", len(x), t.P.D))
	}
	for i, v := range x {
		y[i] = v * SignAt(t.P.Seed, i)
	}
	clear(y[len(x):]) // zero padding, exactly as a fresh buffer would be
	hadamard.Normalized(y)
	clear(z)
	for _, e := range t.entries {
		z[e.Row] += e.Val * y[e.Col]
	}
	for j := range z {
		z[j] *= t.P.Scale
	}
}

// ApplyAll maps a point set, fanning the independent per-point transforms
// out at GOMAXPROCS. Each output slot is a pure function of (seed, point),
// so the result is bit-identical to the serial loop at any width. Each
// shard reuses one Hadamard scratch buffer and slices its outputs out of
// one allocation, so the heap cost is per shard, not per point.
func (t *Transform) ApplyAll(pts []vec.Point) []vec.Point {
	out := make([]vec.Point, len(pts))
	k := t.P.K
	par.For(len(pts), func(lo, hi int) {
		zs := make([]float64, (hi-lo)*k)
		y := make([]float64, t.P.DPad)
		for i := lo; i < hi; i++ {
			z := vec.Point(zs[:k:k])
			zs = zs[k:]
			t.applyInto(pts[i], y, z)
			out[i] = z
		}
	})
	return out
}

// MaxPairwiseDistortion returns max over pairs of
// |‖φp−φq‖/‖p−q‖ − 1| — the empirical (1±ξ) check (O(n²)).
func MaxPairwiseDistortion(orig, mapped []vec.Point) float64 {
	var worst float64
	for i := range orig {
		for j := i + 1; j < len(orig); j++ {
			de := vec.Dist(orig[i], orig[j])
			if de == 0 {
				continue
			}
			dm := vec.Dist(mapped[i], mapped[j])
			if dev := math.Abs(dm/de - 1); dev > worst {
				worst = dev
			}
		}
	}
	return worst
}
