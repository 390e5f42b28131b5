// Package workload generates the synthetic point sets the experiments run
// on. Every generator is seeded and deterministic, returns pairwise
// distinct points, and (where noted) snaps to the integer lattice [Δ]^d —
// the input model of Theorem 1.
//
// The generators cover the regimes the paper's claims stress: uniform
// volume (typical case), tight Gaussian clusters (two-scale distances,
// where distortion hurts most), hypercube corners (all distances equal —
// the JL-hard case), and a discretised circle (the cycle metric that
// started the tree-embedding lower-bound story [52]).
package workload

import (
	"fmt"
	"math"

	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// dedupTopUp retries gen until n distinct points were produced.
func dedupTopUp(n int, gen func() vec.Point) []vec.Point {
	seen := make(map[string]bool, n)
	pts := make([]vec.Point, 0, n)
	key := func(p vec.Point) string {
		b := make([]byte, 0, len(p)*8)
		for _, x := range p {
			v := math.Float64bits(x)
			for s := 0; s < 64; s += 8 {
				b = append(b, byte(v>>s))
			}
		}
		return string(b)
	}
	for attempts := 0; len(pts) < n; attempts++ {
		if attempts > 1000*n {
			panic(fmt.Sprintf("workload: cannot generate %d distinct points (space too small?)", n))
		}
		p := gen()
		k := key(p)
		if !seen[k] {
			seen[k] = true
			pts = append(pts, p)
		}
	}
	return pts
}

// UniformLattice draws n distinct points uniformly from [1, delta]^d.
func UniformLattice(seed uint64, n, d, delta int) []vec.Point {
	if float64(n) > math.Pow(float64(delta), float64(d)) {
		panic("workload: lattice too small for n distinct points")
	}
	r := rng.New(seed)
	return dedupTopUp(n, func() vec.Point {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = float64(1 + r.Intn(delta))
		}
		return p
	})
}

// GaussianClusters draws n points from k Gaussian blobs with the given
// standard deviation, centers uniform in [delta/4, 3delta/4]^d, snapped to
// the lattice [1, delta]^d.
func GaussianClusters(seed uint64, n, d, k int, sigma float64, delta int) []vec.Point {
	if k < 1 {
		panic("workload: need at least one cluster")
	}
	r := rng.New(seed)
	centers := make([]vec.Point, k)
	for i := range centers {
		c := make(vec.Point, d)
		for j := range c {
			c[j] = r.UniformRange(float64(delta)/4, 3*float64(delta)/4)
		}
		centers[i] = c
	}
	raw := dedupTopUp(n, func() vec.Point {
		c := centers[r.Intn(k)]
		p := make(vec.Point, d)
		for j := range p {
			v := math.Round(c[j] + r.NormalScaled(sigma))
			if v < 1 {
				v = 1
			}
			if v > float64(delta) {
				v = float64(delta)
			}
			p[j] = v
		}
		return p
	})
	return raw
}

// HypercubeCorners draws n distinct corners of {1, delta}^d (requires
// n ≤ 2^d). All pairwise distances are multiples of (delta−1), stressing
// dimension reduction rather than scale separation.
func HypercubeCorners(seed uint64, n, d, delta int) []vec.Point {
	if d < 63 && n > 1<<uint(d) {
		panic("workload: more corners requested than exist")
	}
	r := rng.New(seed)
	return dedupTopUp(n, func() vec.Point {
		p := make(vec.Point, d)
		for j := range p {
			if r.Bool() {
				p[j] = float64(delta)
			} else {
				p[j] = 1
			}
		}
		return p
	})
}

// Circle places n distinct points on a circle of radius delta/2 embedded
// in the plane (coordinates snapped to the lattice). The cycle is the
// classic hard instance for deterministic tree embedding (Rabinovich–Raz);
// randomized embeddings handle it in expectation.
func Circle(seed uint64, n, delta int) []vec.Point {
	r := rng.New(seed)
	rad := float64(delta-2) / 2
	cx := rad + 1
	i := 0
	return dedupTopUp(n, func() vec.Point {
		// Even spacing plus jitter to escape lattice collisions.
		theta := 2*math.Pi*float64(i)/float64(n) + r.UniformRange(0, 0.1/float64(n))
		i++
		return vec.Point{
			math.Round(cx + rad*math.Cos(theta)),
			math.Round(cx + rad*math.Sin(theta)),
		}
	})
}

// SparseBinary draws n distinct d-dimensional vectors with exactly k
// coordinates set to delta (the rest 1) — the sparse inputs the FJLT's HD
// preconditioning exists to handle.
func SparseBinary(seed uint64, n, d, k, delta int) []vec.Point {
	if k > d {
		panic("workload: sparsity exceeds dimension")
	}
	r := rng.New(seed)
	return dedupTopUp(n, func() vec.Point {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = 1
		}
		perm := r.Perm(d)
		for _, j := range perm[:k] {
			p[j] = float64(delta)
		}
		return p
	})
}
