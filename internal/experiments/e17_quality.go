package experiments

import (
	"bytes"
	"math"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/quality"
	"mpctree/internal/stats"
	"mpctree/internal/workload"
)

func init() { register("E17-Quality", runE17) }

// runE17 validates the quality-telemetry layer against the offline
// measurement it replaces: on one sequentially embedded tree, a
// full-sample audit must agree bit-for-bit with stats.MeasureDistortion
// (which folds that audit's own per-pair ratios), domination must hold with
// zero violations (Theorem 2 is deterministic for sequential trees),
// every per-scale diameter ratio must respect the Lemma-1 bound, and
// auditing must leave the tree's serialized bytes untouched. A sampled
// audit is then checked to land within sampling error of the full one.
func runE17(cfg Config) (*Result, error) {
	n, d, delta := 160, 8, 1024
	if cfg.Quick {
		n = 64
	}
	pts := workload.UniformLattice(cfg.Seed+17, n, d, delta)

	tree, info, err := core.Embed(pts, core.Options{Method: core.MethodHybrid, Seed: cfg.Seed ^ 0x17})
	if err != nil {
		return nil, err
	}
	var before bytes.Buffer
	if _, err := tree.WriteTo(&before); err != nil {
		return nil, err
	}

	// Full-sample audit vs the offline measurement, same single tree.
	full, err := quality.Audit(tree, pts, quality.Config{MaxPairs: -1, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	cfg.Quality.ObserveAudit(full)
	offline, err := stats.MeasureDistortion(pts, 1, func(uint64) (*hst.Tree, error) {
		return tree, nil
	})
	if err != nil {
		return nil, err
	}

	// Sampled audit: same tree, bounded pair budget.
	sampled, err := quality.Audit(tree, pts, quality.Config{MaxPairs: 512, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	var after bytes.Buffer
	if _, err := tree.WriteTo(&after); err != nil {
		return nil, err
	}

	tab := stats.NewTable("source", "pairs", "mean ratio", "max ratio", "min ratio", "p95")
	tab.AddRow("offline stats (1 tree)", offline.Pairs, offline.MeanRatio, offline.MaxMeanRatio, offline.MinRatio, offline.P95Ratio)
	tab.AddRow("audit, all pairs", full.SampledPairs, full.MeanRatio, full.MaxRatio, full.MinRatio, full.P95Ratio)
	tab.AddRow("audit, 512 pairs", sampled.SampledPairs, sampled.MeanRatio, sampled.MaxRatio, sampled.MinRatio, sampled.P95Ratio)

	ltab := stats.NewTable("level", "diam bound", "together", "separated", "sep rate", "diam ratio")
	maxDiamRatio := 0.0
	for _, st := range full.Levels {
		ltab.AddRow(st.Level, st.DiamBound, st.Together, st.Separated, st.SepRate, st.DiamRatio)
		if st.DiamRatio > maxDiamRatio {
			maxDiamRatio = st.DiamRatio
		}
	}

	res := &Result{
		ID: "E17-Quality",
		Claim: "Telemetry: the online auditor reproduces the offline distortion measurement bit-for-bit on full samples, " +
			"observes Theorem-2 domination and the Lemma-1 diameter bounds, and never perturbs the audited tree.",
		Tables: []*stats.Table{tab, ltab},
	}

	bitEqual := full.MeanRatio == offline.MeanRatio &&
		full.MinRatio == offline.MinRatio &&
		full.MaxRatio == offline.MaxMeanRatio &&
		full.P95Ratio == offline.P95Ratio &&
		full.SampledPairs == offline.Pairs
	sampleErr := math.Abs(sampled.MeanRatio-full.MeanRatio) / full.MeanRatio
	res.Checks = append(res.Checks,
		check("full audit == offline measurement (bitwise)", bitEqual,
			"mean %.17g vs %.17g, min %.17g vs %.17g, pairs %d vs %d",
			full.MeanRatio, offline.MeanRatio, full.MinRatio, offline.MinRatio, full.SampledPairs, offline.Pairs),
		check("domination: zero violations", full.DominationViolations == 0 && full.MinRatio >= 1-1e-9,
			"%d violations, min ratio %.9f over %d pairs", full.DominationViolations, full.MinRatio, full.SampledPairs),
		check("Lemma-1 diameter bound at every level", maxDiamRatio <= 1+1e-9,
			"max same-part dist / bound = %.4f over %d levels (r=%d)", maxDiamRatio, len(full.Levels), info.R),
		check("sampled audit within sampling error of full", sampleErr < 0.25,
			"sampled mean %.3f vs full %.3f (relative gap %.1f%%, 512/%d pairs)",
			sampled.MeanRatio, full.MeanRatio, sampleErr*100, full.TotalPairs),
		check("audit left tree bytes untouched", bytes.Equal(before.Bytes(), after.Bytes()),
			"%d bytes before, %d after", before.Len(), after.Len()),
	)
	return res, nil
}
