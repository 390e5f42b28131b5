package core

import (
	"bytes"
	"runtime"
	"testing"

	"mpctree/internal/fjlt"
	"mpctree/internal/mpc"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/workload"
)

// The quality layer's hard constraint: auditing observes an embedding,
// it never participates in one. A run with a collector attached must
// produce a tree byte-identical to the bare run — the auditor draws its
// pair sample from its own seed and only ever reads the tree — at any
// GOMAXPROCS.
func TestQualityAuditingPreservesSequentialDeterminism(t *testing.T) {
	pts := workload.UniformLattice(21, 96, 8, 1024)
	opt := Options{Seed: 5}

	bare, _, err := Embed(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	var bareBytes bytes.Buffer
	if _, err := bare.WriteTo(&bareBytes); err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		reg := obs.New()
		qopt := opt
		qopt.Quality = quality.NewCollector(reg, quality.Config{MaxPairs: 400, Seed: 77})
		audited, _, err := Embed(pts, qopt)
		if err != nil {
			t.Fatal(err)
		}
		var auditedBytes bytes.Buffer
		if _, err := audited.WriteTo(&auditedBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bareBytes.Bytes(), auditedBytes.Bytes()) {
			t.Fatalf("GOMAXPROCS=%d: audited run's tree differs from bare run", procs)
		}
		// The in-loop instrumentation must actually have observed levels.
		var seps float64
		for _, v := range reg.Snapshot() {
			if v.Name == "quality_separation_events_total" {
				seps += v.Value
			}
		}
		if seps == 0 {
			t.Fatal("no separation events recorded — collector was not wired into the level loop")
		}
	}
}

// Same constraint for the full Theorem-1 pipeline: the audit runs after
// ScaleWeights against the original points and must not perturb the
// tree. The published report must exist and carry a Thm2Bound-derived
// alarm threshold when none was configured.
func TestQualityAuditingPreservesPipelineDeterminism(t *testing.T) {
	pts := workload.UniformLattice(22, 48, 120, 512)
	opt := PipelineOptions{Xi: 0.3, FJLT: fjlt.Options{CK: 1}, Seed: 7}

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
		Xi: 0.3, FJLT: fjlt.Options{CK: 1}, Seed: 9,
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
