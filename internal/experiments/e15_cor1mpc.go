package experiments

import (
	"math"

	"mpctree/internal/core"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcapps"
	"mpctree/internal/rng"
	"mpctree/internal/stats"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

func init() { register("E15-Cor1MPC", runE15) }

// runE15 verifies that Corollary 1's applications genuinely run as MPC
// computations: after the Theorem-1 pipeline leaves per-point paths
// resident on the machines, EMD and densest-ball queries complete in O(1)
// additional rounds, agree with the driver-side tree computations, and
// are invariant to the machine count. The first table's inputs have
// d < k, so the FJLT is skipped; the second's has d ≫ log n, so the FJLT
// and the 1/(1−ξ) rescale run before Algorithm 2.
func runE15(cfg Config) (*Result, error) {
	ns := []int{48, 96, 192}
	if cfg.Quick {
		ns = []int{48, 96}
	}
	res := &Result{
		ID:    "E15-Cor1MPC",
		Claim: "Corollary 1, distributed form: with resident path(p) records, EMD and densest-ball queries take O(1) extra rounds, match the driver-side tree answers to 1e-9 relative, and are machine-count invariant.",
	}
	tab := stats.NewTable("n", "machines", "embed rounds", "EMD rounds", "DB rounds", "MST rounds", "EMD matches tree?", "MST cost matches?", "peak local words")
	fjltTab := stats.NewTable("n", "d", "FJLT ran?", "k", "r", "machines", "embed rounds", "EMD rounds", "DB rounds", "MST rounds", "EMD matches tree?", "MST cost matches?", "peak local words")

	r := rng.New(cfg.Seed + 150)
	allMatch := true
	mstMatch := true
	var emdRounds, dbRounds, mstRounds []int
	// run draws one pair of measures on pts, then on 4 and 8 machines
	// embeds pts with paths kept and runs the three queries. It adds a row
	// per machine count to tab: lead's cells, then the measurements.
	run := func(tab *stats.Table, pts []vec.Point, popt core.PipelineOptions, lead func(*core.PipelineInfo) []any) error {
		n := len(pts)
		mu := make([]float64, n)
		nu := make([]float64, n)
		var sm, sn float64
		for i := 0; i < n; i++ {
			mu[i] = r.Float64()
			nu[i] = r.Float64()
			sm += mu[i]
			sn += nu[i]
		}
		for i := 0; i < n; i++ {
			mu[i] /= sm
			nu[i] /= sn
		}
		for _, M := range []int{4, 8} {
			c := cfg.NewCluster(mpc.Config{Machines: M, CapWords: 1 << 22})
			tree, info, _, err := core.EmbedPaths(c, pts, popt)
			if err != nil {
				return err
			}
			e := mpcapps.New(c, tree, nil, nil)
			embedRounds := c.Metrics().Rounds
			got, err := e.EMD(mu, nu)
			if err != nil {
				return err
			}
			er := c.Metrics().Rounds - embedRounds
			want := tree.EMD(mu, nu)
			match := math.Abs(got-want) <= 1e-9*(1+want)
			allMatch = allMatch && match
			preDB := c.Metrics().Rounds
			if _, err := e.DensestBall(8, 64); err != nil {
				return err
			}
			dr := c.Metrics().Rounds - preDB
			preMST := c.Metrics().Rounds
			mstCost, err := e.MSTCost()
			if err != nil {
				return err
			}
			mr := c.Metrics().Rounds - preMST
			mMatch := math.Abs(mstCost-tree.MSTCost()) <= 1e-9*(1+mstCost)
			mstMatch = mstMatch && mMatch
			tab.AddRow(append(lead(info), M, embedRounds, er, dr, mr, match, mMatch, c.Metrics().MaxLocalWords)...)
			emdRounds = append(emdRounds, er)
			dbRounds = append(dbRounds, dr)
			mstRounds = append(mstRounds, mr)
		}
		return nil
	}
	for _, n := range ns {
		pts := workload.GaussianClusters(cfg.Seed+151+uint64(n), n, 4, 4, 8, 1024)
		lead := func(*core.PipelineInfo) []any { return []any{len(pts)} }
		// The pipeline seeds Algorithm 2 with Seed^0x7EE: this row's embed
		// seed is cfg.Seed + 152.
		if err := run(tab, pts, core.PipelineOptions{R: 2, Seed: (cfg.Seed + 152) ^ 0x7EE}, lead); err != nil {
			return nil, err
		}
	}
	// d ≫ log n, the regime Theorem 1 is stated for; r is chosen by the
	// grid plan.
	const dHigh = 256
	pts := workload.GaussianClusters(cfg.Seed+153, 96, dHigh, 4, 8, 1024)
	fjltRan := true
	var fjltK, fjltR int
	lead := func(info *core.PipelineInfo) []any {
		fjltRan = fjltRan && info.UsedFJLT
		fjltK, fjltR = info.FJLTParams.K, info.EmbedInfo.R
		return []any{len(pts), dHigh, info.UsedFJLT, fjltK, fjltR}
	}
	if err := run(fjltTab, pts, core.PipelineOptions{Seed: cfg.Seed + 154}, lead); err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, tab, fjltTab)

	constRounds := true
	for i := 1; i < len(emdRounds); i++ {
		if emdRounds[i] != emdRounds[0] || dbRounds[i] != dbRounds[0] || mstRounds[i] != mstRounds[0] {
			constRounds = false
		}
	}
	res.Checks = append(res.Checks,
		check("distributed EMD equals tree EMD", allMatch, "within 1e-9 relative at every (n, d, machines); the two sums add the same terms in different orders"),
		check("distributed MST cost equals tree MST", mstMatch, "within 1e-9 relative; both are minimum under the tree metric"),
		check("query rounds constant", constRounds, "EMD %v, DB %v, MST %v", emdRounds, dbRounds, mstRounds),
		check("queries cheap vs embedding", emdRounds[0] <= 4 && dbRounds[0] <= 4 && mstRounds[0] <= 4,
			"EMD %d, DB %d, MST %d rounds", emdRounds[0], dbRounds[0], mstRounds[0]),
		check("FJLT ran at d ≫ log n", fjltRan, "d=%d → k=%d, then r=%d buckets", dHigh, fjltK, fjltR),
	)
	return res, nil
}
