// Package grid implements random shifted grids (Definition 1 of the paper)
// and the grid-of-balls geometry used by ball partitioning (Definition 2).
//
// A Grid with cell length ℓ and shift s ∈ [0,ℓ)^d tiles R^d with hypercubic
// cells; each cell is identified by its integer coordinate vector. Ball
// partitioning places a ball of radius w = ℓ/4 at every grid intersection
// point (the shifted lattice s + ℓ·Z^d); CenterIndex finds the lattice
// point nearest to a query, which is the only candidate ball that can
// contain it when w ≤ ℓ/2.
//
// Cell and center indices are encoded as compact string keys so they can be
// used as partition identifiers, map keys, and MPC shuffle keys.
package grid

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// Grid is a randomly shifted grid of cell length Cell in dimension Dim.
type Grid struct {
	Dim   int
	Cell  float64
	Shift vec.Point // shift vector in [0, Cell)^Dim
}

// New samples a grid of the given cell length with a uniform shift drawn
// from [0, cell)^dim, as Definition 1 requires.
func New(r *rng.RNG, dim int, cell float64) Grid {
	if dim <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimension %d", dim))
	}
	return NewInto(r, make(vec.Point, dim), cell)
}

// NewInto samples a grid into a caller-provided shift buffer (dimension =
// len(shift)), drawing exactly the same variates as New — the grid
// generation in mpcembed, which draws every shift into one shared slice,
// relies on the two being bitwise interchangeable.
func NewInto(r *rng.RNG, shift vec.Point, cell float64) Grid {
	if len(shift) == 0 {
		panic("grid: empty shift buffer")
	}
	if cell <= 0 {
		panic(fmt.Sprintf("grid: non-positive cell length %v", cell))
	}
	for i := range shift {
		shift[i] = r.UniformRange(0, cell)
	}
	return Grid{Dim: len(shift), Cell: cell, Shift: shift}
}

// CellCoords returns the integer cell coordinates of p: cell i along
// dimension j contains points with shifted coordinate in [i·ℓ, (i+1)·ℓ).
// The result is written into dst (reused to avoid allocation) and returned.
func (g Grid) CellCoords(p vec.Point, dst []int64) []int64 {
	if len(p) != g.Dim {
		panic(fmt.Sprintf("grid: point dim %d != grid dim %d", len(p), g.Dim))
	}
	dst = dst[:0]
	for i, x := range p {
		dst = append(dst, int64(math.Floor((x-g.Shift[i])/g.Cell)))
	}
	return dst
}

// CenterIndex returns the coordinates of the lattice point (grid
// intersection) of s + ℓ·Z^d nearest to p. When the ball radius is at most
// ℓ/2, this is the unique lattice point whose ball can contain p.
func (g Grid) CenterIndex(p vec.Point, dst []int64) []int64 {
	if len(p) != g.Dim {
		panic(fmt.Sprintf("grid: point dim %d != grid dim %d", len(p), g.Dim))
	}
	dst = dst[:0]
	for i, x := range p {
		dst = append(dst, int64(math.Round((x-g.Shift[i])/g.Cell)))
	}
	return dst
}

// DistToCenter returns the distance from p to the lattice point with the
// given index, without materialising the center.
func (g Grid) DistToCenter(p vec.Point, idx []int64) float64 {
	var s float64
	for i, v := range idx {
		d := p[i] - (g.Shift[i] + float64(v)*g.Cell)
		s += d * d
	}
	return math.Sqrt(s)
}

// InBall reports whether p lies within distance radius of the nearest
// lattice point, and returns that lattice point's index (valid only when
// the bool is true; the index slice is scratch-reused). It computes each
// index and its squared distance in one pass, with CenterIndex's and
// DistToCenter's expressions, so the result is theirs to the bit.
func (g Grid) InBall(p vec.Point, radius float64, scratch []int64) ([]int64, bool) {
	if len(p) != g.Dim {
		panic(fmt.Sprintf("grid: point dim %d != grid dim %d", len(p), g.Dim))
	}
	idx := scratch[:0]
	var s float64
	for i, x := range p {
		v := int64(math.Round((x - g.Shift[i]) / g.Cell))
		idx = append(idx, v)
		d := x - (g.Shift[i] + float64(v)*g.Cell)
		s += d * d
	}
	return idx, math.Sqrt(s) <= radius
}

// FirstCover's fast-path limits. Inside them the kernel's distance to
// the nearest lattice point and InBall's differ by far less than the
// band (see FirstCover), so a grid outside the band is settled without
// InBall.
const (
	coverBand    = 0x1p-24  // half-width of the band around the radius, in cells
	coverMaxQ    = 0x1p20   // bound on |q| and on |x|/cell
	coverMaxDim  = 256      // bound on k
	coverMinCell = 0x1p-400 // cell range where InBall's squares stay normal
	coverMaxCell = 0x1p400
)

// FirstCover returns the first grid of a packed set whose ball of the
// given radius covers p, with that ball's lattice index: grid u of the
// set has cell length cell and shift shifts[u·k:(u+1)·k], k = len(p). It
// returns (u, idx, true), idx in scratch's storage, or (-1, nil, false)
// when no grid covers p. By definition this is what a loop that calls
// InBall on grid 0, 1, … and stops at the first hit returns.
//
// It gets there without InBall's division and Round for most grids. Per
// grid it computes q = (x − s)·(1/cell), rounds q with math.RoundToEven
// and sums (q − round q)², the squared distance in cells to the nearest
// lattice point, then compares it with (radius/cell ± 2^-24)²:
//   - above the band, the grid is a miss;
//   - below the band, it is a hit, answered from the rounded q's;
//   - within the band, InBall decides.
//
// This is exact. A division and a reciprocal multiply, and Round and
// RoundToEven, differ only by rounding error: with |q| < 2^20,
// |x| < 2^20·cell and k ≤ 256 the kernel's distance and InBall's differ
// by less than 2^-25 cell, so a grid outside the band gets InBall's
// verdict. Below the band every |q − round q| is less than
// radius/cell − 2^-24 < 1/2 − 2^-24, so both roundings pick the same
// lattice point. Everything else goes to InBall: any |q| ≥ 2^20 or NaN,
// and, for the whole call, a radius ≥ cell/2, a coordinate outside the
// bound or non-finite, k > 256, or a cell outside [2^-400, 2^400], where
// squares could leave the normal range.
func FirstCover(p vec.Point, shifts []float64, cell, radius float64, scratch []int64) (int, []int64, bool) {
	k := len(p)
	if k == 0 || len(shifts)%k != 0 {
		panic(fmt.Sprintf("grid: %d shift words do not split into grids of dimension %d", len(shifts), k))
	}
	n := len(shifts) / k
	inv := 1 / cell
	rho := radius / cell
	if !coverFast(p, cell, rho) {
		for u := 0; u < n; u++ {
			g := Grid{Dim: k, Cell: cell, Shift: shifts[u*k : (u+1)*k]}
			if idx, in := g.InBall(p, radius, scratch); in {
				return u, idx, true
			}
		}
		return -1, nil, false
	}
	hit := -1.0 // nothing is a clear hit when the radius is under the band
	if rho > coverBand {
		hit = (rho - coverBand) * (rho - coverBand)
	}
	miss := (rho + coverBand) * (rho + coverBand)
	for u := 0; u < n; u++ {
		s := shifts[u*k : (u+1)*k : (u+1)*k]
		var d2 float64
		inRange := true
		for i, x := range p {
			q := (x - s[i]) * inv
			if !(math.Abs(q) < coverMaxQ) {
				inRange = false
				break
			}
			f := q - math.RoundToEven(q)
			d2 += f * f
		}
		switch {
		case inRange && d2 > miss:
			continue
		case inRange && d2 < hit:
			idx := scratch[:0]
			for i, x := range p {
				idx = append(idx, int64(math.RoundToEven((x-s[i])*inv)))
			}
			return u, idx, true
		}
		g := Grid{Dim: k, Cell: cell, Shift: s}
		if idx, in := g.InBall(p, radius, scratch); in {
			return u, idx, true
		}
	}
	return -1, nil, false
}

// coverFast reports whether FirstCover's fast path holds for the whole
// call: see FirstCover.
func coverFast(p vec.Point, cell, rho float64) bool {
	if len(p) > coverMaxDim || !(cell >= coverMinCell && cell <= coverMaxCell) || !(rho >= 0 && rho < 0.5) {
		return false
	}
	xMax := coverMaxQ * cell
	for _, x := range p {
		if !(math.Abs(x) < xMax) {
			return false
		}
	}
	return true
}

// Key encodes an index vector into a compact, comparable string. Keys from
// different grids of the same dimension are comparable only within one
// grid; callers prepend a grid identifier (see KeyWithPrefix).
func Key(idx []int64) string {
	buf := make([]byte, 8*len(idx))
	for i, v := range idx {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return string(buf)
}

// KeyWithPrefix encodes (prefix, idx) into one comparable string; prefix
// typically identifies (level, bucket, grid attempt).
func KeyWithPrefix(prefix uint64, idx []int64) string {
	buf := make([]byte, 8+8*len(idx))
	binary.LittleEndian.PutUint64(buf, prefix)
	for i, v := range idx {
		binary.LittleEndian.PutUint64(buf[8+8*i:], uint64(v))
	}
	return string(buf)
}

// Words returns the storage footprint of the grid descriptor in 64-bit
// words (dimension, cell, and the shift vector). Used by the MPC space
// accounting: broadcasting a grid costs Words() per receiving machine.
func (g Grid) Words() int { return 2 + g.Dim }
