package experiments

import (
	"math"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/stats"
	"mpctree/internal/workload"
)

func init() { register("E02-Thm2", runE02) }

// runE02 reproduces Theorem 2: the sequential hybrid embedding dominates
// the Euclidean metric and its expected distortion scales like
// √(d·r)·logΔ. We sweep r on a fixed dataset and compare the measured
// expected distortion against the bound's shape.
func runE02(cfg Config) (*Result, error) {
	n, d, delta, trees := 192, 8, 1024, 24
	if cfg.Quick {
		n, trees = 64, 8
	}
	pts := workload.UniformLattice(cfg.Seed+10, n, d, delta)

	tab := stats.NewTable("r", "E[distortion] (max pair)", "mean ratio", "min ratio", "√(d·r)·log₂Δ", "measured/bound")
	res := &Result{
		ID:    "E02-Thm2",
		Claim: "Theorem 2: ‖p−q‖ ≤ dist_T(p,q) always, and E[dist_T] ≤ O(√(d·r)·logΔ)·‖p−q‖ — distortion grows with r at rate ≈ √r.",
	}

	rs := []int{1, 2, 4, 8}
	var worst []float64
	minRatioOverall := math.Inf(1)
	for _, r := range rs {
		dist, err := stats.MeasureDistortion(pts, trees, func(seed uint64) (*hst.Tree, error) {
			t, _, err := core.Embed(pts, core.Options{Method: core.MethodHybrid, R: r, Seed: cfg.Seed ^ seed<<8 ^ uint64(r)<<40})
			return t, err
		})
		if err != nil {
			return nil, err
		}
		bound := math.Sqrt(float64(d*r)) * math.Log2(float64(delta))
		tab.AddRow(r, dist.MaxMeanRatio, dist.MeanRatio, dist.MinRatio, bound, dist.MaxMeanRatio/bound)
		worst = append(worst, dist.MaxMeanRatio)
		if dist.MinRatio < minRatioOverall {
			minRatioOverall = dist.MinRatio
		}
	}
	res.Tables = append(res.Tables, tab)

	// Growth rate of distortion in r should be ≈ 0.5 on a log-log fit
	// (√r); accept anything clearly sublinear and positive.
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = float64(r)
	}
	slope := stats.LogLogSlope(xs, worst)
	res.Checks = append(res.Checks,
		check("domination holds in every tree", minRatioOverall >= 1-1e-9, "min single-tree ratio %.6f", minRatioOverall),
		check("distortion grows with r", worst[len(worst)-1] > worst[0], "r=1: %.2f, r=8: %.2f", worst[0], worst[len(worst)-1]),
		check("growth rate ≈ √r (slope 0.5)", slope > 0.15 && slope < 0.9, "log-log slope %.3f", slope),
		check("constants modest", worst[0] < math.Sqrt(float64(d))*math.Log2(float64(delta))*4,
			"r=1 distortion %.2f vs 4×bound %.2f", worst[0], math.Sqrt(float64(d))*math.Log2(float64(delta))*4),
	)
	return res, nil
}
