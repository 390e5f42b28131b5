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
// the bool is true; the index slice is scratch-reused).
func (g Grid) InBall(p vec.Point, radius float64, scratch []int64) ([]int64, bool) {
	idx := g.CenterIndex(p, scratch)
	return idx, g.DistToCenter(p, idx) <= radius
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
