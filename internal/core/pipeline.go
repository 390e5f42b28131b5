// The full Theorem-1 pipeline: MPC Fast Johnson–Lindenstrauss dimension
// reduction (Theorem 3) followed by MPC hybrid partitioning (Algorithm 2),
// producing an O(log^1.5 n)-distortion tree embedding in O(1) rounds.
package core

import (
	"errors"
	"fmt"

	"mpctree/internal/fjlt"
	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcembed"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/resilient"
	"mpctree/internal/vec"
)

// PipelineOptions configures the end-to-end Theorem-1 run.
type PipelineOptions struct {
	// Xi is the FJLT distortion parameter ξ ∈ (0, 0.5); 0 means 0.3.
	Xi float64
	// CK is the constant in the FJLT target dimension k = CK·ξ⁻²·ln n;
	// 0 means 4.
	CK float64
	// R is Algorithm 2's bucket count; 0 picks the smallest r ≥
	// Θ(log log n) whose grids fit one machine.
	R int
	// Seed drives both stages and the retry driver: the FJLT draws from
	// Seed^0xFA57, Algorithm 2 from Seed^0x7EE, backoff jitter from
	// Seed^0xB0FF.
	Seed uint64

	// Resilient executes each stage under the retrying driver: bounded
	// retries after injected faults or transport failures, each after a
	// rollback that clears the stores, so none is read at stage entry.
	// Retries replay the stage with its original seed, so a recovered
	// run's tree is bit-identical to the fault-free run's. When the FJLT
	// stage exhausts its retries, the pipeline degrades: it embeds the
	// original, un-reduced points.
	Resilient bool
	// MaxRetries is the retrying driver's per-stage budget
	// (resilient.Options.MaxRetries: 0 means 3, negative means none); its
	// backoff jitter draws from Seed^0xB0FF. Ignored unless Resilient is
	// set.
	MaxRetries int

	// Span, if non-nil, receives one child span per stage attempt:
	// "jl_projection" for the FJLT stage (Algorithm 3) and "tree_embed"
	// for hybrid partitioning (Algorithm 2) — the latter with
	// grid_construction / root_paths / tree_build children attributed
	// inside mpcembed. Each attempt span carries the exact rounds and
	// comm_words it consumed (from the cluster meters); failed attempts
	// are marked failed=1 and retries attempt=k. Spans are observational
	// only: the output tree is bit-identical with or without them.
	Span *obs.Span

	// Quality, if non-nil, audits the FINAL tree (after the 1/(1−ξ)
	// rescale) against the ORIGINAL points on the collector's seeded pair
	// sample and publishes the quality_* series, the per-scale Lemma-1
	// observables included. When the collector's MaxMeanRatio is zero,
	// the Theorem-2 alarm threshold defaults to Thm2Bound over the run's
	// actual (d, r, levels). Observational only: the tree is bit-identical
	// with or without it.
	Quality *quality.Collector
}

// PipelineInfo aggregates accounting across both stages; the cluster's
// round, space and communication meters are c.Metrics().
type PipelineInfo struct {
	UsedFJLT   bool
	FJLTParams fjlt.Params
	EmbedInfo  *mpcembed.Info

	// Degraded reports that the FJLT stage exhausted its retries and the
	// pipeline fell back to embedding the original, un-reduced points
	// (with MinDist left unadjusted — distances were never contracted).
	Degraded       bool
	DegradedReason string
	// Recovery accounting: stage attempts, virtual backoff charged by the
	// retry driver, faults the cluster injected, and rollback overhead.
	Attempts         int
	VirtualBackoffMs int64
	Faults           mpc.FaultStats
	Recovery         mpc.RecoveryStats
}

// EmbedPipeline runs Theorem 1 on the cluster: reduce dimension with the
// MPC FJLT when it helps, then build the tree with MPC hybrid
// partitioning. The returned tree is rescaled by 1/(1−ξ) after dimension
// reduction so that, whenever the FJLT met its (1±ξ) guarantee, the tree
// metric still dominates the ORIGINAL Euclidean distances. c must hold no
// records: each stage loads its own inputs from the driver, and under
// Resilient a failed stage rolls back to empty stores.
func EmbedPipeline(c *mpc.Cluster, pts []vec.Point, opt PipelineOptions) (*hst.Tree, *PipelineInfo, error) {
	tree, info, _, err := embedPipeline(c, pts, opt, false)
	return tree, info, err
}

// EmbedPaths is EmbedPipeline for mpcapps' queries. Both leave one path
// record per point resident on c (see mpcembed.TagPath); under Resilient
// EmbedPaths also returns a checkpoint of them, read at the end of the
// embed stage's step so that a worker lost while they are read retries
// it.
func EmbedPaths(c *mpc.Cluster, pts []vec.Point, opt PipelineOptions) (*hst.Tree, *PipelineInfo, *mpc.Checkpoint, error) {
	return embedPipeline(c, pts, opt, true)
}

func embedPipeline(c *mpc.Cluster, pts []vec.Point, opt PipelineOptions, checkpointPaths bool) (*hst.Tree, *PipelineInfo, *mpc.Checkpoint, error) {
	n := len(pts)
	if n == 0 {
		return nil, nil, nil, errors.New("core: empty point set")
	}
	d := len(pts[0])
	if d == 0 {
		return nil, nil, nil, errors.New("core: zero-dimensional points")
	}

	xi := opt.Xi
	if xi == 0 {
		xi = 0.3
	}
	if xi <= 0 || xi >= 0.5 {
		return nil, nil, nil, fmt.Errorf("core: xi=%v out of (0, 0.5)", xi)
	}
	params, err := fjlt.NewParams(n, d, fjlt.Options{Xi: xi, CK: opt.CK, Seed: opt.Seed ^ 0xFA57})
	if err != nil {
		return nil, nil, nil, err
	}

	info := &PipelineInfo{FJLTParams: params}
	work := pts
	// Theorem 1 assumes integer-lattice inputs: distinct points lie at
	// distance ≥ 1.
	minDist := 1.0

	retry := resilient.Options{MaxRetries: opt.MaxRetries, Seed: opt.Seed ^ 0xB0FF}
	runStage := func(stage, spanName string, step func(sp *obs.Span) error) error {
		runAttempt := func(attempt int) error {
			sp := opt.Span.Child(spanName)
			m0 := c.Metrics()
			err := step(sp)
			sp.End()
			m1 := c.Metrics()
			sp.Add("rounds", int64(m1.Rounds-m0.Rounds))
			sp.Add("comm_words", int64(m1.CommWords-m0.CommWords))
			if attempt > 0 {
				sp.Add("attempt", int64(attempt))
			}
			if err != nil {
				sp.Add("failed", 1)
			}
			return err
		}
		if !opt.Resilient {
			return runAttempt(0)
		}
		st, err := resilient.Run(c, nil, stage, retry, runAttempt)
		info.Attempts += st.Attempts
		info.VirtualBackoffMs += st.VirtualBackoffMs
		return err
	}
	fillRecovery := func() {
		info.Faults = c.FaultStats()
		info.Recovery = c.Recovery()
	}

	// Skip dimension reduction when d is already at most the FJLT target
	// dimension k: running the FJLT would not reduce it.
	if d > params.K {
		ferr := runStage("fjlt", "jl_projection", func(_ *obs.Span) error {
			mapped, err := fjlt.ApplyMPC(c, pts, params, 0)
			if err != nil {
				return err
			}
			// Clear transformed outputs off the cluster before the
			// embedding stage loads its own records (driver handoff, not
			// a round).
			if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record { return nil }); err != nil {
				return err
			}
			work = mapped
			return nil
		})
		switch {
		case ferr == nil:
			info.UsedFJLT = true
			// Distances contracted by at most (1−ξ) w.h.p.
			minDist *= 1 - xi
		case opt.Resilient:
			// Degradation policy: the reduction stage is unrecoverable,
			// so embed the ORIGINAL points. MinDist stays unadjusted
			// (distances were never contracted) and no rescale happens
			// at the end. resilient.Run left every store cleared.
			info.Degraded = true
			info.DegradedReason = ferr.Error()
			work = pts
		default:
			fillRecovery()
			return nil, info, nil, ferr
		}
	}

	var tree *hst.Tree
	var einfo *mpcembed.Info
	var paths *mpc.Checkpoint
	err = runStage("embed", "tree_embed", func(sp *obs.Span) error {
		t, ei, err := mpcembed.Embed(c, work, mpcembed.Options{
			R: opt.R, MinDist: minDist, Seed: opt.Seed ^ 0x7EE, Span: sp,
		})
		einfo = ei // partial accounting survives a failed attempt
		if err != nil {
			return err
		}
		tree = t
		if checkpointPaths && opt.Resilient {
			paths, err = c.Checkpoint()
		}
		return err
	})
	info.EmbedInfo = einfo
	fillRecovery()
	if err != nil {
		return nil, info, nil, err
	}
	if info.UsedFJLT {
		tree.ScaleWeights(1 / (1 - xi))
	}
	if opt.Quality != nil {
		// Audit the final tree against the ORIGINAL points: the 1/(1−ξ)
		// rescale above is exactly what makes domination hold w.h.p. for
		// the un-reduced metric, so that is the claim worth checking.
		qcfg := opt.Quality.Config()
		if qcfg.MaxMeanRatio == 0 && einfo != nil {
			qcfg.MaxMeanRatio = quality.Thm2Bound(einfo.Dim, einfo.R, einfo.Levels)
		}
		if rep, aerr := quality.Audit(tree, pts, qcfg); aerr == nil {
			opt.Quality.ObserveAudit(rep)
		}
	}
	return tree, info, paths, nil
}
