// The standard (dense Gaussian) Johnson–Lindenstrauss transform — the
// baseline Theorem 3's total-space claim is measured against: it uses a
// full k×d Gaussian matrix, so applying it to n points is a general
// matrix multiplication costing O(n·d·k) work/space in MPC (the paper's
// Section 5 opening), versus the FJLT's O(nd + ξ⁻²n·log³n).
package fjlt

import (
	"fmt"
	"math"

	"mpctree/internal/par"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// DenseJL is a materialised dense Gaussian projection R^d → R^k with
// entries N(0, 1/k).
type DenseJL struct {
	K, D int
	rows [][]float64 // k rows of length d
}

// NewDenseJL builds a dense JL transform for n points in dimension d with
// target distortion xi (same k selection as the FJLT for comparability).
func NewDenseJL(n, d int, opt Options) (*DenseJL, error) {
	p, err := NewParams(n, d, opt)
	if err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed ^ 0xDE5E)
	sigma := 1 / math.Sqrt(float64(p.K))
	rows := make([][]float64, p.K)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormalScaled(sigma)
		}
		rows[i] = row
	}
	return &DenseJL{K: p.K, D: d, rows: rows}, nil
}

// Apply maps one point.
func (t *DenseJL) Apply(x vec.Point) vec.Point {
	if len(x) != t.D {
		panic(fmt.Sprintf("fjlt: dense JL expects dimension %d, got %d", t.D, len(x)))
	}
	out := make(vec.Point, t.K)
	for i, row := range t.rows {
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// ApplyAll maps a point set, fanning the independent per-point matrix
// multiplies out at GOMAXPROCS; each slot write is a pure function of the
// materialised rows and the point, so output is width-invariant.
func (t *DenseJL) ApplyAll(pts []vec.Point) []vec.Point {
	out := make([]vec.Point, len(pts))
	par.For(len(pts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Apply(pts[i])
		}
	})
	return out
}

// WorkWords returns the multiplication count (≈ words of intermediate
// state in a naive MPC execution) of applying the dense transform to n
// points: n·d·k — the quantity the FJLT's total space is compared to.
func (t *DenseJL) WorkWords(n int) int { return n * t.D * t.K }
