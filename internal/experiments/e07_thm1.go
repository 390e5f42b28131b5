package experiments

import (
	"math"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcembed"
	"mpctree/internal/stats"
	"mpctree/internal/workload"
)

func init() { register("E07-Thm1", runE07) }

// runE07 reproduces the headline of Theorem 1 in the regime it is about —
// high-dimensional data. Grid partitioning's expected distortion scales
// with d while hybrid partitioning's scales with √(d·r) = d/√k (k = d/r
// dimensions per bucket), so:
//
//   - at low d the grid baseline is competitive (its constants are
//     smaller) — the crossover;
//   - from d ≈ 16 up, hybrid wins, with the gap growing as √k — and k
//     is capped only by local memory (Lemma 7's 2^Θ(k log k) grids),
//     which is the paper's exact trade-off;
//   - the MPC implementation runs in O(1) rounds with metered memory.
func runE07(cfg Config) (*Result, error) {
	n, trees := 128, 12
	if cfg.Quick {
		n, trees = 96, 6
	}

	res := &Result{
		ID:    "E07-Thm1",
		Claim: "Theorem 1: in high dimension, hybrid partitioning beats Arora's grid — crossover near d≈16, gap ≈ √(d/r); O(1) MPC rounds; this is the regime d = Θ(log n) the full pipeline produces.",
	}

	measure := func(pts [][]float64, m core.Method, r int, salt uint64) (float64, error) {
		dist, err := stats.MeasureDistortion(pts, trees, func(seed uint64) (*hst.Tree, error) {
			t, _, err := core.Embed(pts, core.Options{Method: m, R: r, Seed: cfg.Seed ^ seed<<9 ^ salt})
			return t, err
		})
		if err != nil {
			return 0, err
		}
		return dist.MaxMeanRatio, nil
	}

	// Table 1 — the crossover in d: grid vs best-feasible hybrid
	// (smallest r with k = d/r ≤ 8, the largest bucket dimension whose
	// Lemma-7 grid count fits a 2^20 budget).
	dims := []int{4, 8, 16, 32}
	if cfg.Quick {
		dims = []int{4, 16, 32}
	}
	t1 := stats.NewTable("d", "r (min feasible)", "k=d/r", "grid E[dist]", "hybrid E[dist]", "grid/hybrid")
	gapAt := map[int]float64{}
	for _, d := range dims {
		r := (d + 7) / 8
		pts := workload.UniformLattice(cfg.Seed+70+uint64(d), n, d, 512)
		g, err := measure(pts, core.MethodGrid, 0, uint64(d))
		if err != nil {
			return nil, err
		}
		h, err := measure(pts, core.MethodHybrid, r, uint64(d)<<1)
		if err != nil {
			return nil, err
		}
		t1.AddRow(d, r, (d+r-1)/r, g, h, g/h)
		gapAt[d] = g / h
	}
	res.Tables = append(res.Tables, t1)

	// Table 2 — the gap is set by k = d/r: at fixed d = 16, shrinking r
	// (more ball-like buckets) improves hybrid distortion, which is what
	// the extra memory buys.
	const dFix = 16
	pts16 := workload.UniformLattice(cfg.Seed+75, n, dFix, 512)
	g16, err := measure(pts16, core.MethodGrid, 0, 99)
	if err != nil {
		return nil, err
	}
	t2 := stats.NewTable("r", "k=d/r", "hybrid E[dist]", "grid/hybrid")
	hybAtK := map[int]float64{}
	for _, r := range []int{2, 4, 8} {
		h, err := measure(pts16, core.MethodHybrid, r, uint64(r)<<21)
		if err != nil {
			return nil, err
		}
		t2.AddRow(r, dFix/r, h, g16/h)
		hybAtK[dFix/r] = h
	}
	res.Tables = append(res.Tables, t2)

	// Table 3 — MPC accounting: O(1) rounds and metered memory.
	acct := stats.NewTable("machines", "rounds", "peak local words", "total space", "comm words", "U", "grid words")
	roundsPerM := map[int]int{}
	ptsAcct := workload.UniformLattice(cfg.Seed+71, n, dFix, 512)
	for _, M := range []int{4, 8} {
		c := cfg.NewCluster(mpc.Config{Machines: M, CapWords: 1 << 22})
		_, info, err := mpcembed.Embed(c, ptsAcct, mpcembed.Options{Seed: cfg.Seed + 72})
		if err != nil {
			return nil, err
		}
		m := c.Metrics()
		acct.AddRow(M, m.Rounds, m.MaxLocalWords, m.TotalSpace, m.CommWords, info.U, info.GridWords)
		roundsPerM[M] = m.Rounds
	}
	res.Tables = append(res.Tables, acct)

	lowD := dims[0]
	highs := []int{16, 32}
	hybridWinsHigh := true
	for _, d := range highs {
		if gapAt[d] <= 1.05 {
			hybridWinsHigh = false
		}
	}
	res.Checks = append(res.Checks,
		check("grid competitive at low d", gapAt[lowD] < 1.25, "d=%d gap %.3f (crossover below d=16)", lowD, gapAt[lowD]),
		check("hybrid wins in high dimension", hybridWinsHigh, "gaps: d=16 %.3f, d=32 %.3f", gapAt[16], gapAt[32]),
		check("gap improves with k = d/r", hybAtK[8] < hybAtK[4] && hybAtK[4] < hybAtK[2]*1.1,
			"hybrid E[dist] at k=8/4/2: %.2f / %.2f / %.2f", hybAtK[8], hybAtK[4], hybAtK[2]),
		check("O(1) MPC rounds", roundsPerM[4] <= 14 && roundsPerM[8] <= 14, "rounds: %v", roundsPerM),
		check("grid baseline sane", g16 > 1 && !math.IsNaN(g16), "grid E[dist] at d=16: %.2f", g16),
	)
	return res, nil
}
