package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/workload"
)

// The quality layer's hard constraint: auditing observes an embedding,
// it never participates in one. Auditing a sequential tree through a
// collector leaves the tree byte-identical — the auditor draws its pair
// sample from its own seed and only ever reads the tree — and publishes
// the same report, per-level series included, at any GOMAXPROCS.
func TestQualityAuditingPreservesSequentialDeterminism(t *testing.T) {
	pts := workload.UniformLattice(21, 96, 8, 1024)
	tree, _, err := Embed(pts, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := treeBytes(t, tree)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var reports []*quality.Report
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		reg := obs.New()
		col := quality.NewCollector(reg, quality.Config{MaxPairs: 400, Seed: 77})
		rep, err := quality.Audit(tree, pts, col.Config())
		if err != nil {
			t.Fatal(err)
		}
		col.ObserveAudit(rep)
		if !bytes.Equal(before, treeBytes(t, tree)) {
			t.Fatalf("GOMAXPROCS=%d: auditing changed the tree", procs)
		}
		var seps float64
		for _, v := range reg.Snapshot() {
			if v.Name == "quality_separation_events_total" {
				seps += v.Value
			}
		}
		if seps == 0 {
			t.Fatal("no separation events recorded — the audit's levels were not published")
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatal("audit report differs between GOMAXPROCS=1 and 8")
	}
}

// Same constraint for the full Theorem-1 pipeline: the audit runs after
// ScaleWeights against the original points and must not perturb the
// tree. The published report must exist and carry a Thm2Bound-derived
// alarm threshold when none was configured.
func TestQualityAuditingPreservesPipelineDeterminism(t *testing.T) {
	pts := workload.UniformLattice(22, 48, 120, 512)
	opt := PipelineOptions{Xi: 0.3, CK: 1, Seed: 7}

	bare, _ := runPipeline(t, pts, opt, false, nil)

	reg := obs.New()
	col := quality.NewCollector(reg, quality.Config{MaxPairs: 300, Seed: 99})
	qopt := opt
	qopt.Quality = col
	audited, _ := runPipeline(t, pts, qopt, false, nil)

	if !bytes.Equal(bare, audited) {
		t.Fatal("audited pipeline run's tree differs from bare run")
	}
	rep := col.Last()
	if rep == nil {
		t.Fatal("pipeline did not publish an audit report")
	}
	if rep.MaxMeanRatio <= 0 {
		t.Fatalf("audit alarm threshold not defaulted from Thm2Bound: %v", rep.MaxMeanRatio)
	}
	if rep.SampledPairs == 0 {
		t.Fatal("audit measured no pairs")
	}
	// The pipeline rescales by 1/(1−ξ) exactly so domination holds for
	// the original metric w.h.p.; at this size it should hold outright.
	if rep.DominationViolations > rep.SampledPairs/10 {
		t.Fatalf("%d/%d domination violations after rescale", rep.DominationViolations, rep.SampledPairs)
	}
}

// The MPC embedding stage observes tree-derived level stats; a resilient
// chaos run with a collector attached must still reproduce the
// fault-free tree bit-for-bit.
func TestQualityAuditingPreservesChaosRecovery(t *testing.T) {
	pts := workload.UniformLattice(23, 32, 120, 512)
	opt := PipelineOptions{
		Xi: 0.3, CK: 1, Seed: 9,
		Resilient: true,
	}
	bare, _ := runPipeline(t, pts, opt, false, nil)

	reg := obs.New()
	qopt := opt
	qopt.Quality = quality.NewCollector(reg, quality.Config{MaxPairs: 200, Seed: 1})
	c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 22})
	c.InjectFaults(mpc.UniformFaults(0xC4A05, 0.03))
	tree, info, err := EmbedPipeline(c, pts, qopt)
	if err != nil {
		t.Fatalf("chaos pipeline: %v", err)
	}
	if info.Faults.Injected() == 0 {
		t.Fatal("no faults injected — test asserts nothing")
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare, buf.Bytes()) {
		t.Fatal("audited chaos run's tree differs from bare fault-free run")
	}
}

// The per-level quality series come from one place, the final audit: a
// pipeline run publishes exactly its report's Levels, measured against the
// original points and the rescaled tree. The input engages the FJLT, where
// a fold over the reduced points and the unscaled tree would read other
// diameter ratios.
func TestPipelineLevelSeriesAreAuditLevels(t *testing.T) {
	pts := workload.UniformLattice(22, 48, 120, 512)
	reg := obs.New()
	col := quality.NewCollector(reg, quality.Config{MaxPairs: 300, Seed: 99})
	c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 22})
	_, info, err := EmbedPipeline(c, pts, PipelineOptions{Xi: 0.3, CK: 1, Seed: 7, Quality: col})
	if err != nil {
		t.Fatal(err)
	}
	if !info.UsedFJLT {
		t.Fatal("FJLT did not run; the test needs the rescaled tree")
	}
	rep := col.Last()
	if rep == nil || len(rep.Levels) == 0 {
		t.Fatal("pipeline published no audit levels")
	}
	type series struct{ sep, together, ratio float64 }
	got := map[string]*series{}
	at := func(level string) *series {
		if got[level] == nil {
			got[level] = &series{}
		}
		return got[level]
	}
	for _, v := range reg.Snapshot() {
		switch v.Name {
		case "quality_separation_events_total":
			at(v.Labels["level"]).sep = v.Value
		case "quality_level_pairs_together":
			at(v.Labels["level"]).together = v.Value
		case "quality_level_diameter_ratio":
			at(v.Labels["level"]).ratio = v.Value
		}
	}
	if len(got) != len(rep.Levels) {
		t.Fatalf("%d level series published, audit has %d levels", len(got), len(rep.Levels))
	}
	for _, st := range rep.Levels {
		want := series{float64(st.Separated), float64(st.Together), st.DiamRatio}
		if g := got[strconv.Itoa(st.Level)]; g == nil || *g != want {
			t.Errorf("level %d: series %+v, audit %+v", st.Level, g, want)
		}
	}
}
