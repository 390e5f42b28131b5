package experiments

import (
	"errors"
	"fmt"
	"math"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcembed"
	"mpctree/internal/stats"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

func init() { register("E11-Ablate", runE11) }

// runE11 is the ablation at the heart of the paper (Section 1.3.1):
// sweeping the bucket count r from ball partitioning (r=1) to grid-like
// partitioning (r=d) trades distortion (grows ≈ √r) against the grid
// state a machine must hold (shrinks superexponentially with r). It also
// demonstrates the MPC feasibility cliff: at small r the Lemma-7 grid
// count exceeds any fully scalable memory and both the sequential grid
// budget and the MPC Lemma-8 check must refuse to run.
func runE11(cfg Config) (*Result, error) {
	n, trees := 192, 12
	if cfg.Quick {
		n, trees = 64, 5
	}
	const d, delta = 16, 1024

	res := &Result{
		ID:    "E11-Ablate",
		Claim: "Section 1.3.1: grid partitioning reduces local memory, ball partitioning improves distortion; hybrid interpolates — distortion ∝ √r, grid state ∝ 2^Θ((d/r)·log(d/r)).",
	}
	pts := workload.UniformLattice(cfg.Seed+110, n, d, delta)
	diam := vec.Bounds(pts).Diameter()
	capWords := mpc.FullyScalableCap(n, d, 0.7, 512)

	tab := stats.NewTable("r", "k=d/r", "U (Lemma 7)", "grid words (Lemma 8)", "fits (nd)^0.7·512 cap?", "E[distortion]")

	rs := []int{1, 2, 4, 8, 16}
	var dists []float64
	fits := make([]bool, len(rs))
	words := make([]float64, len(rs))
	for ri, r := range rs {
		u, _, gridWords := mpcembed.GridPlan(n, d, r, diam, 1, 0.01)
		words[ri] = float64(gridWords)
		fits[ri] = gridWords <= capWords

		// Distortion from the sequential framework (identical math, no
		// cluster overhead); infeasible bucket counts are recorded as
		// such — that refusal IS the experiment's point.
		dist, err := stats.MeasureDistortion(pts, trees, func(seed uint64) (*hst.Tree, error) {
			t, _, err := core.Embed(pts, core.Options{Method: core.MethodHybrid, R: r, Seed: cfg.Seed ^ seed<<15 ^ uint64(r)<<2})
			return t, err
		})
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) || errors.Is(err, core.ErrCoverageFailure) {
				tab.AddRow(r, d/r, u, gridWords, fits[ri], "infeasible")
				dists = append(dists, math.NaN())
				continue
			}
			return nil, err
		}
		tab.AddRow(r, d/r, u, gridWords, fits[ri], dist.MaxMeanRatio)
		dists = append(dists, dist.MaxMeanRatio)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes, fmt.Sprintf("fully scalable cap = (n·d)^0.7 · 512 = %d words", capWords))

	// Checks: distortion non-decreasing over the feasible suffix; grid
	// words strictly decreasing; feasibility cliff present.
	distGrow := true
	prevDist := -1.0
	for ri := range rs {
		if math.IsNaN(dists[ri]) {
			continue
		}
		if prevDist > 0 && dists[ri] < prevDist*0.85 {
			distGrow = false
		}
		prevDist = dists[ri]
	}
	wordShrink := true
	for ri := 1; ri < len(words); ri++ {
		if words[ri] >= words[ri-1] {
			wordShrink = false
		}
	}
	res.Checks = append(res.Checks,
		check("distortion grows with r", distGrow, "≈√r trend across the feasible sweep"),
		check("grid state shrinks with r", wordShrink, "2^Θ((d/r)log(d/r)) collapse: %v", words),
		check("small r infeasible at fully scalable cap, large r feasible",
			!fits[0] && fits[len(fits)-1],
			"r=1 fits=%v … r=%d fits=%v (cap %d words)", fits[0], rs[len(rs)-1], fits[len(fits)-1], capWords),
		check("ball partitioning (r=1) refused outright", math.IsNaN(dists[0]),
			"Lemma-7 bound exceeds any practical budget at k=16"),
	)
	return res, nil
}
