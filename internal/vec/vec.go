// Package vec provides the dense-vector geometry primitives shared by the
// partitioning, embedding, and application layers: points as []float64,
// Euclidean norms and distances, bucket projections (Definition 3 of the
// paper), bounding boxes, and pairwise distance extrema.
//
// Points live in [Δ]^d as in the paper's Theorem 1 ("we regard the
// coordinates of points as integers from [Δ]"), but the representation is
// float64 so the same code path serves the post-FJLT real-valued data.
package vec

import (
	"fmt"
	"math"

	"mpctree/internal/par"
)

// Point is a d-dimensional vector.
type Point = []float64

// Norm2 returns the squared Euclidean norm of a.
func Norm2(a Point) float64 {
	var s float64
	for _, x := range a {
		s += x * x
	}
	return s
}

// Dist2 returns the squared Euclidean distance between a and b.
func Dist2(a, b Point) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dist2 dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Point) float64 { return math.Sqrt(Dist2(a, b)) }

// Add returns a+b as a fresh vector.
func Add(a, b Point) Point {
	out := make(Point, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Scale returns c*a as a fresh vector.
func Scale(c float64, a Point) Point {
	out := make(Point, len(a))
	for i := range a {
		out[i] = c * a[i]
	}
	return out
}

// Clone returns a deep copy of a.
func Clone(a Point) Point {
	out := make(Point, len(a))
	copy(out, a)
	return out
}

// Bucket projects p onto bucket j of r equal buckets of the d dimensions,
// exactly as Definition 3: bucket j (0-based) covers dimensions
// [j*d/r, (j+1)*d/r). d must be divisible by r (callers pad with zeros
// first; see PadToMultiple).
func Bucket(p Point, j, r int) Point {
	d := len(p)
	if d%r != 0 {
		panic(fmt.Sprintf("vec: Bucket requires r | d, got d=%d r=%d", d, r))
	}
	k := d / r
	return p[j*k : (j+1)*k]
}

// PadToMultiple returns p extended with zeros so its length is a multiple
// of r (the paper's footnote 3: concatenate 0s so r | d, at most doubling
// d). If the length already divides evenly, p is returned unchanged.
func PadToMultiple(p Point, r int) Point {
	d := len(p)
	if d%r == 0 {
		return p
	}
	padded := make(Point, d+(r-d%r))
	copy(padded, p)
	return padded
}

// PadPointsToMultiple pads every point in ps to a common length divisible
// by r.
func PadPointsToMultiple(ps []Point, r int) []Point {
	if len(ps) == 0 || len(ps[0])%r == 0 {
		return ps
	}
	out := make([]Point, len(ps))
	for i, p := range ps {
		out[i] = PadToMultiple(p, r)
	}
	return out
}

// BoundingBox is an axis-aligned box [Lo_i, Hi_i] per dimension.
type BoundingBox struct {
	Lo, Hi Point
}

// Bounds computes the bounding box of a non-empty point set.
func Bounds(ps []Point) BoundingBox {
	if len(ps) == 0 {
		panic("vec: Bounds of empty point set")
	}
	lo := Clone(ps[0])
	hi := Clone(ps[0])
	for _, p := range ps[1:] {
		for i, x := range p {
			if x < lo[i] {
				lo[i] = x
			}
			if x > hi[i] {
				hi[i] = x
			}
		}
	}
	return BoundingBox{Lo: lo, Hi: hi}
}

// Diameter returns the diagonal length of the box, an upper bound on any
// pairwise distance within it.
func (b BoundingBox) Diameter() float64 {
	var s float64
	for i := range b.Lo {
		d := b.Hi[i] - b.Lo[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// MinPairwiseDist returns the smallest non-zero pairwise distance (O(n^2);
// +Inf when there is none). Rows fan out at GOMAXPROCS and fold with an
// exact min, so the result is bit-identical at any width.
func MinPairwiseDist(ps []Point) float64 {
	minD, _ := par.MinMax(len(ps), math.Inf(1), 0, func(i int) (float64, bool) {
		rowMin := math.Inf(1)
		for j := i + 1; j < len(ps); j++ {
			d := Dist(ps[i], ps[j])
			if d > 0 && d < rowMin {
				rowMin = d
			}
		}
		return rowMin, true
	})
	return minD
}

// MaxPairwiseDist returns the largest pairwise distance (O(n^2)).
func MaxPairwiseDist(ps []Point) float64 {
	var maxD float64
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if d := Dist(ps[i], ps[j]); d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// Dedup removes exact duplicate points, preserving first occurrences.
// Tree embeddings require distinct leaves; duplicates are zero-distance
// pairs the metric cannot represent multiplicatively.
func Dedup(ps []Point) []Point {
	seen := make(map[string]bool, len(ps))
	out := ps[:0:0]
	var keyBuf []byte
	for _, p := range ps {
		keyBuf = keyBuf[:0]
		for _, x := range p {
			b := math.Float64bits(x)
			for s := 0; s < 64; s += 8 {
				keyBuf = append(keyBuf, byte(b>>s))
			}
		}
		k := string(keyBuf)
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// Equal reports whether a and b are identical vectors.
func Equal(a, b Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
