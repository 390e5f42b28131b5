package experiments

import (
	"math"

	"mpctree/internal/mpc"
	"mpctree/internal/mpcapps"
	"mpctree/internal/mpcembed"
	"mpctree/internal/rng"
	"mpctree/internal/stats"
	"mpctree/internal/workload"
)

func init() { register("E15-Cor1MPC", runE15) }

// runE15 verifies that Corollary 1's applications genuinely run as MPC
// computations: after Algorithm 2 leaves per-point paths resident on the
// machines, EMD and densest-ball queries complete in O(1) additional
// rounds, agree exactly with the driver-side tree computations, and are
// invariant to the machine count.
func runE15(cfg Config) (*Result, error) {
	ns := []int{48, 96, 192}
	if cfg.Quick {
		ns = []int{48, 96}
	}
	res := &Result{
		ID:    "E15-Cor1MPC",
		Claim: "Corollary 1, distributed form: with resident path(p) records, EMD and densest-ball queries take O(1) extra rounds, match the driver-side tree answers exactly, and are machine-count invariant.",
	}
	tab := stats.NewTable("n", "machines", "embed rounds", "EMD rounds", "DB rounds", "MST rounds", "EMD matches tree?", "MST cost matches?", "peak local words")

	r := rng.New(cfg.Seed + 150)
	allMatch := true
	mstMatch := true
	var emdRounds, dbRounds, mstRounds []int
	for _, n := range ns {
		pts := workload.GaussianClusters(cfg.Seed+151+uint64(n), n, 4, 4, 8, 1024)
		n = len(pts)
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
			e, err := mpcapps.Embed(c, pts, mpcembed.Options{R: 2, Seed: cfg.Seed + 152})
			if err != nil {
				return nil, err
			}
			embedRounds := c.Metrics().Rounds
			got, err := e.EMD(mu, nu)
			if err != nil {
				return nil, err
			}
			er := c.Metrics().Rounds - embedRounds
			want := e.Tree.EMD(mu, nu)
			match := math.Abs(got-want) <= 1e-9*(1+want)
			if !match {
				allMatch = false
			}
			preDB := c.Metrics().Rounds
			if _, err := e.DensestBall(8, 64); err != nil {
				return nil, err
			}
			dr := c.Metrics().Rounds - preDB
			preMST := c.Metrics().Rounds
			mstCost, err := e.MSTCost()
			if err != nil {
				return nil, err
			}
			mr := c.Metrics().Rounds - preMST
			mMatch := math.Abs(mstCost-e.Tree.MSTCost()) <= 1e-9*(1+mstCost)
			if !mMatch {
				mstMatch = false
			}
			tab.AddRow(n, M, embedRounds, er, dr, mr, match, mMatch, c.Metrics().MaxLocalWords)
			emdRounds = append(emdRounds, er)
			dbRounds = append(dbRounds, dr)
			mstRounds = append(mstRounds, mr)
		}
	}
	res.Tables = append(res.Tables, tab)

	constRounds := true
	for i := 1; i < len(emdRounds); i++ {
		if emdRounds[i] != emdRounds[0] || dbRounds[i] != dbRounds[0] || mstRounds[i] != mstRounds[0] {
			constRounds = false
		}
	}
	res.Checks = append(res.Checks,
		check("distributed EMD equals tree EMD", allMatch, "bit-level agreement at every (n, machines)"),
		check("distributed MST cost equals tree MST", mstMatch, "exact under the tree metric"),
		check("query rounds constant", constRounds, "EMD %v, DB %v, MST %v", emdRounds, dbRounds, mstRounds),
		check("queries cheap vs embedding", emdRounds[0] <= 4 && dbRounds[0] <= 4 && mstRounds[0] <= 4,
			"EMD %d, DB %d, MST %d rounds", emdRounds[0], dbRounds[0], mstRounds[0]),
	)
	return res, nil
}
