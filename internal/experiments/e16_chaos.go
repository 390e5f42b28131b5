package experiments

import (
	"bytes"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/stats"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

func init() { register("E16-Chaos", runE16) }

// runE16 measures the fault-tolerant execution layer. The paper's MPC
// model assumes failure-free machines; this experiment quantifies what
// giving that up costs. It runs the full Theorem-1 pipeline (FJLT +
// Algorithm 2) under a ladder of per-round fault rates — machine crashes,
// transient round failures, message drops/duplication, memory pressure —
// with checkpointed retries, and checks the two properties the recovery
// layer promises:
//
//   - the recovered tree is bit-identical to the fault-free run of the
//     same algorithm seed (recovery never perturbs the randomness);
//   - the domination invariant dist_T(p,q) ≥ ‖p−q‖₂ survives chaos.
//
// The table reports the price: extra attempts, restores, rolled-back
// rounds, and virtual backoff.
func runE16(cfg Config) (*Result, error) {
	n, d := 48, 300
	retries := 60
	if cfg.Quick {
		n = 32
	}
	if cfg.MaxRetries > 0 {
		retries = cfg.MaxRetries
	}
	faultSeed := cfg.FaultSeed
	if faultSeed == 0 {
		faultSeed = cfg.Seed ^ 0xC4A05
	}

	res := &Result{
		ID:    "E16-Chaos",
		Claim: "Robustness: with round checkpointing and deterministic retry, the Theorem-1 pipeline survives injected crashes/transients/message corruption/memory pressure and produces a tree bit-identical to the fault-free run.",
	}

	pts := workload.UniformLattice(cfg.Seed+160, n, d, 512)
	opts := core.PipelineOptions{
		Xi:         0.3,
		CK:         1,
		Seed:       cfg.Seed + 161,
		Resilient:  true,
		MaxRetries: retries,
	}

	run := func(plan *mpc.FaultPlan) (*hst.Tree, *core.PipelineInfo, error) {
		c := cfg.NewCluster(mpc.Config{Machines: 4, CapWords: 1 << 22})
		if plan != nil {
			c.InjectFaults(plan)
		}
		return core.EmbedPipeline(c, pts, opts)
	}

	baseTree, baseInfo, err := run(nil)
	if err != nil {
		return nil, err
	}
	var baseBuf bytes.Buffer
	if _, err := baseTree.WriteTo(&baseBuf); err != nil {
		return nil, err
	}

	// Quick mode shrinks n only: one rate alone can draw no fault at all
	// for a given fault seed, which would leave the checks vacuous.
	rates := []float64{0.02, 0.05, 0.10}
	if cfg.Faults > 0 {
		rates = []float64{cfg.Faults}
	}

	t := stats.NewTable("fault rate", "injected", "attempts", "restores", "rolled-back rounds", "backoff ms", "identical")
	t.AddRow(0.0, 0, baseInfo.Attempts, 0, 0, 0, true)

	identicalAll := true
	injectedAny := 0
	recoveredAll := true
	domOK := true
	for _, p := range rates {
		tree, info, err := run(mpc.UniformFaults(faultSeed, p))
		if err != nil || info.Degraded {
			recoveredAll = false
			reason := "error"
			if err == nil {
				reason = "degraded: " + info.DegradedReason
			}
			t.AddRow(p, info.Faults.Injected(), info.Attempts, info.Recovery.Restores,
				info.Recovery.RolledBackRounds, info.VirtualBackoffMs, reason)
			continue
		}
		injectedAny += info.Faults.Injected()
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			return nil, err
		}
		same := bytes.Equal(buf.Bytes(), baseBuf.Bytes())
		if !same {
			identicalAll = false
		}
		for i := 0; i < n && domOK; i++ {
			for j := i + 1; j < n; j++ {
				if tree.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
					domOK = false
					break
				}
			}
		}
		t.AddRow(p, info.Faults.Injected(), info.Attempts, info.Recovery.Restores,
			info.Recovery.RolledBackRounds, info.VirtualBackoffMs, same)
	}
	res.Tables = append(res.Tables, t)

	res.Checks = append(res.Checks,
		check("faults actually injected", injectedAny > 0, "%d faults across the rate ladder", injectedAny),
		check("pipeline recovers at every rate", recoveredAll, "retry budget %d per stage", retries),
		check("recovered tree bit-identical to fault-free run", identicalAll, "same (seed, fault-seed) ⇒ same tree"),
		check("domination survives chaos", domOK, "dist_T(p,q) ≥ ‖p−q‖₂ on all pairs"),
	)
	return res, nil
}
