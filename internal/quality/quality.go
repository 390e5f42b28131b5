// Package quality turns the paper's quality theorems into live telemetry.
// Where internal/stats measures distortion offline (one experiment, one
// number), this package audits a finished embedding continuously: a
// deterministic, seeded pair sample is driven through the tree, each
// pair's distortion ratio dist_T(p,q)/‖p−q‖₂ streams into an obs
// histogram, the domination invariant (ratio ≥ 1, Theorem 2) and a
// Theorem-2 expectation alarm are checked with explicit violation
// counters, and the per-scale Lemma-1 observables (separation events,
// same-part diameters per level w) are exported as metric series.
//
// Determinism contract (same as internal/obs): auditing is read-only on
// the tree and the points, draws its randomness from its own seed, and
// therefore never perturbs an embedding — the determinism suite asserts
// an audited run is bitwise equal to an un-audited one. With MaxPairs
// covering all pairs, the audit's per-pair ratios are the ones
// stats.MeasureDistortion folds, so the two agree on a single tree by
// construction.
package quality

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mpctree/internal/hst"
	"mpctree/internal/par"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// Config tunes an audit. The zero value samples 2048 pairs with seed 0,
// with no Theorem-2 alarm threshold.
type Config struct {
	// MaxPairs caps the pair sample: 0 means 2048, negative means every
	// pair. When the cap covers all n(n−1)/2 pairs the sample is the full
	// lexicographic enumeration.
	MaxPairs int `json:"max_pairs,omitempty"`
	// Seed drives pair sampling only — it is independent of any embedding
	// seed, so the same pairs are re-audited across hot reloads.
	Seed uint64 `json:"seed,omitempty"`
	// MaxMeanRatio, when positive, is the Theorem-2 expectation alarm: a
	// report whose mean ratio exceeds it is flagged BoundViolated. Derive
	// a threshold with Thm2Bound, or set a tighter SLO by hand.
	MaxMeanRatio float64 `json:"max_mean_ratio,omitempty"`
}

// dominationTolerance is the relative slack of the domination check
// (ratio ≥ 1−dominationTolerance): it absorbs float rounding only.
const dominationTolerance = 1e-9

func (c Config) withDefaults() Config {
	if c.MaxPairs == 0 {
		c.MaxPairs = 2048
	}
	return c
}

// Report is one audit's result — the JSON served under /v1/quality.
type Report struct {
	Points       int     `json:"points"`
	SampledPairs int     `json:"sampled_pairs"` // pairs with nonzero distance actually measured
	TotalPairs   int     `json:"total_pairs"`   // n(n−1)/2
	ZeroSkipped  int     `json:"zero_skipped,omitempty"`
	Seed         uint64  `json:"seed"`
	MeanRatio    float64 `json:"mean_ratio"`
	MaxRatio     float64 `json:"max_ratio"`
	MinRatio     float64 `json:"min_ratio"`
	P95Ratio     float64 `json:"p95_ratio"`
	// DominationViolations counts pairs with dist_T < (1−tol)·‖p−q‖₂.
	// Zero, deterministically, for sequentially embedded trees; for
	// pipeline trees (FJLT + rescale) domination holds only w.h.p.
	DominationViolations int    `json:"domination_violations"`
	WorstPair            [2]int `json:"worst_pair"`
	MinPair              [2]int `json:"min_pair"`
	// MaxMeanRatio echoes the configured Theorem-2 alarm (0 = disabled);
	// BoundViolated reports MeanRatio > MaxMeanRatio.
	MaxMeanRatio  float64 `json:"max_mean_ratio,omitempty"`
	BoundViolated bool    `json:"bound_violated,omitempty"`
	// Levels holds the per-scale Lemma-1 observables derived from the
	// tree: a pair's separation level is its LCA level + 1, and the
	// level's diameter bound is the edge weight entering that level.
	Levels []LevelStat `json:"levels,omitempty"`

	// Ratios holds the per-pair distortion ratios in sample order (zero-
	// distance pairs excluded), for histogram streaming and tests. Not
	// serialized: /v1/quality responses stay small.
	Ratios []float64 `json:"-"`
}

// LevelStat is one hierarchy level's Lemma-1 observables over an audit's
// pair sample. Each level's flat partitioning either separates a pair
// (probability ≤ O(√d·‖p−q‖₂/w) per level) or keeps it together — and a
// pair kept together lies inside one part, whose diameter Lemma 1 bounds
// by 2√r·w (ball-based methods) or √d·w (grid).
type LevelStat struct {
	Level int `json:"level"`
	// DiamBound is the Lemma-1 cluster-diameter bound at this level — the
	// edge weight diamFactor·w the tree charges for staying together here.
	DiamBound float64 `json:"diam_bound,omitempty"`
	// Together counts sampled pairs that entered this level un-separated.
	Together int `json:"together"`
	// Separated counts pairs whose first separation happened at this level.
	Separated int `json:"separated"`
	// MaxSamePartDist is the largest Euclidean distance among pairs still
	// sharing a part after this level. Lemma 1 promises it ≤ DiamBound.
	MaxSamePartDist float64 `json:"max_same_part_dist"`
	// DiamRatio is MaxSamePartDist/DiamBound (0 when DiamBound is 0 or no
	// pair survived). Values above 1 falsify the Lemma-1 diameter bound.
	DiamRatio float64 `json:"diam_ratio"`
	// SepRate is Separated/Together (0 when nothing entered).
	SepRate float64 `json:"sep_rate"`
}

// Thm2Bound returns an alarm threshold for the expected distortion of an
// r-hybrid embedding in dimension d over the given level count: the
// Theorem-2 rate O(√(d·r)·logΔ) with a modest constant. It is a tripwire
// for regressions (a healthy embedding sits well below it), not a
// verification of the theorem's constant.
func Thm2Bound(d, r, levels int) float64 {
	if d < 1 {
		d = 1
	}
	if r < 1 {
		r = 1
	}
	if levels < 1 {
		levels = 1
	}
	return 4 * math.Sqrt(float64(d)*float64(r)) * float64(levels)
}

// SamplePairs returns a deterministic sample of point-index pairs (i<j,
// lexicographically sorted). When maxPairs is negative or covers all
// n(n−1)/2 pairs, the full enumeration is returned. Otherwise maxPairs distinct pairs are
// drawn without replacement from the seeded generator; the draw never
// looks at coordinates, so the same (seed, n) yields the same sample for
// every tree of the point set.
func SamplePairs(seed uint64, n, maxPairs int) [][2]int {
	if n < 2 {
		return nil
	}
	total := n * (n - 1) / 2
	if maxPairs < 0 || maxPairs >= total {
		out := make([][2]int, 0, total)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, [2]int{i, j})
			}
		}
		return out
	}
	r := rng.NewHashed(seed, 0x9a117)
	seen := make(map[int]bool, maxPairs)
	out := make([][2]int, 0, maxPairs)
	for len(out) < maxPairs {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		key := i*n + j
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, [2]int{i, j})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Audit measures tree t against the Euclidean metric of pts over the
// Config's seeded pair sample. It is read-only on both arguments; the
// ratio computation fans out at GOMAXPROCS with every floating-point fold
// serial in pair order, so the report is bit-identical at any width.
func Audit(t *hst.Tree, pts []vec.Point, cfg Config) (*Report, error) {
	if t == nil {
		return nil, errors.New("quality: nil tree")
	}
	n := len(pts)
	if n < 2 {
		return nil, errors.New("quality: need ≥ 2 points")
	}
	if t.NumPoints() != n {
		return nil, fmt.Errorf("quality: tree has %d points, point set has %d", t.NumPoints(), n)
	}
	cfg = cfg.withDefaults()
	pairs := SamplePairs(cfg.Seed, n, cfg.MaxPairs)
	rep := &Report{
		Points:       n,
		TotalPairs:   n * (n - 1) / 2,
		Seed:         cfg.Seed,
		MaxMeanRatio: cfg.MaxMeanRatio,
		MinRatio:     math.Inf(1),
	}

	// Parallel measurement: each pair writes only its own slots. sep is
	// the pair's separation level (LCA level + 1); ratio < 0 marks a
	// zero-distance pair to skip.
	ratios := make([]float64, len(pairs))
	dists := make([]float64, len(pairs))
	seps := make([]int, len(pairs))
	par.For(len(pairs), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i, j := pairs[k][0], pairs[k][1]
			de := vec.Dist(pts[i], pts[j])
			dists[k] = de
			if de == 0 {
				ratios[k] = -1
				continue
			}
			ratios[k] = t.Dist(i, j) / de
			seps[k] = t.Nodes[t.LCA(t.Leaf[i], t.Leaf[j])].Level + 1
		}
	})

	// Serial fold in pair order: the same addition sequence at any width.
	var sum float64
	kept := make([]float64, 0, len(pairs))
	for k, ratio := range ratios {
		if ratio < 0 {
			rep.ZeroSkipped++
			continue
		}
		sum += ratio
		kept = append(kept, ratio)
		if ratio < rep.MinRatio {
			rep.MinRatio = ratio
			rep.MinPair = pairs[k]
		}
		if ratio > rep.MaxRatio {
			rep.MaxRatio = ratio
			rep.WorstPair = pairs[k]
		}
		if ratio < 1-dominationTolerance {
			rep.DominationViolations++
		}
	}
	rep.SampledPairs = len(kept)
	rep.Ratios = kept
	if len(kept) == 0 {
		return nil, errors.New("quality: every sampled pair had zero distance")
	}
	rep.MeanRatio = sum / float64(len(kept))
	sorted := append([]float64(nil), kept...)
	sort.Float64s(sorted)
	rep.P95Ratio = sorted[int(0.95*float64(len(sorted)-1))]
	if cfg.MaxMeanRatio > 0 && rep.MeanRatio > cfg.MaxMeanRatio {
		rep.BoundViolated = true
	}
	rep.Levels = levelStats(t, dists, seps)
	return rep, nil
}

// levelStats aggregates separation levels into per-level stats. seps[k]
// == 0 excludes the pair (zero distance).
func levelStats(t *hst.Tree, dists []float64, seps []int) []LevelStat {
	maxSep := 0
	for _, s := range seps {
		if s > maxSep {
			maxSep = s
		}
	}
	if maxSep == 0 {
		return nil
	}
	// The diameter bound at level ℓ is the (uniform) weight of edges into
	// level-ℓ nodes; take the max so compressed trees (merged unary
	// chains, weights summed) keep a valid — if looser — bound.
	weight := make([]float64, maxSep+1)
	for _, nd := range t.Nodes {
		if nd.Level >= 1 && nd.Level <= maxSep && nd.Weight > weight[nd.Level] {
			weight[nd.Level] = nd.Weight
		}
	}
	out := make([]LevelStat, 0, maxSep)
	for lev := 1; lev <= maxSep; lev++ {
		st := LevelStat{Level: lev, DiamBound: weight[lev]}
		for k, s := range seps {
			if s == 0 || s < lev {
				continue // excluded, or separated before this level
			}
			st.Together++
			if s == lev {
				st.Separated++
			} else if dists[k] > st.MaxSamePartDist {
				st.MaxSamePartDist = dists[k]
			}
		}
		if st.DiamBound > 0 && st.MaxSamePartDist > 0 {
			st.DiamRatio = st.MaxSamePartDist / st.DiamBound
		}
		if st.Together > 0 {
			st.SepRate = float64(st.Separated) / float64(st.Together)
		}
		out = append(out, st)
	}
	return out
}
