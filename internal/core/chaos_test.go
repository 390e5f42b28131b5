package core

import (
	"bytes"
	"errors"
	"testing"

	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/vec"
)

func treeBytes(t testing.TB, tree *hst.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkDomination(t *testing.T, tree *hst.Tree, pts []vec.Point) {
	t.Helper()
	violations := 0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if tree.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
				violations++
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d pairs violate domination", violations)
	}
}

// The headline chaos guarantee: under crashes, transient failures, message
// corruption, and memory pressure at ≥5% per round, the resilient pipeline
// still produces a tree — and when recovery succeeds without degradation,
// that tree is bit-identical to the fault-free run of the same seed.
func TestChaosPipelineBitIdentical(t *testing.T) {
	pts := latticePts(t, 1, 48, 300, 32) // engages the FJLT stage
	opts := pipelineOpts(3)
	opts.Resilient = true
	opts.MaxRetries = 60

	baseTree, baseInfo, err := EmbedPipeline(pipelineCluster(), pts, opts)
	if err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}
	if !baseInfo.UsedFJLT {
		t.Fatal("FJLT did not engage; chaos test needs both stages live")
	}
	base := treeBytes(t, baseTree)

	chaos := func() (*hst.Tree, *PipelineInfo, error) {
		c := pipelineCluster()
		c.InjectFaults(&mpc.FaultPlan{
			Seed:      1234,
			Crash:     0.05,
			Transient: 0.05,
			Pressure:  0.05,
			Drop:      0.02,
			Duplicate: 0.02,
		})
		return EmbedPipeline(c, pts, opts)
	}

	tree, info, err := chaos()
	if err != nil {
		t.Fatalf("chaos run failed: %v (info %+v)", err, info)
	}
	if info.Faults.Injected() == 0 {
		t.Fatal("chaos run injected nothing — the test is vacuous")
	}
	if info.Degraded {
		t.Fatalf("chaos run degraded (reason %q); raise the retry budget", info.DegradedReason)
	}
	if info.Attempts <= 2 {
		t.Errorf("attempts = %d; expected retries under %d injected faults", info.Attempts, info.Faults.Injected())
	}
	if info.Recovery.Restores == 0 || info.Recovery.Checkpoints == 0 {
		t.Errorf("recovery never engaged: %+v", info.Recovery)
	}
	if !bytes.Equal(treeBytes(t, tree), base) {
		t.Error("recovered tree differs from fault-free tree for the same (seed, fault-seed)")
	}
	checkDomination(t, tree, pts)

	// And the chaos run itself is reproducible end to end.
	tree2, info2, err2 := chaos()
	if err2 != nil {
		t.Fatalf("chaos rerun failed: %v", err2)
	}
	if !bytes.Equal(treeBytes(t, tree2), base) {
		t.Error("chaos rerun diverged")
	}
	if info2.Faults != info.Faults || info2.Attempts != info.Attempts {
		t.Errorf("chaos accounting not reproducible: %+v vs %+v", info2.Faults, info.Faults)
	}
}

// When the FJLT stage exhausts its retry budget the pipeline degrades:
// it embeds the original, un-reduced points and reports how and why.
func TestChaosDegradedFallback(t *testing.T) {
	pts := latticePts(t, 2, 32, 300, 32)
	opts := pipelineOpts(5)
	opts.Resilient = true
	opts.MaxRetries = 2

	c := pipelineCluster()
	// Exactly enough transient faults to burn all 3 FJLT attempts; the
	// embed stage then runs fault-free.
	c.InjectFaults(&mpc.FaultPlan{Seed: 7, Transient: 1, MaxFaults: 3})
	tree, info, err := EmbedPipeline(c, pts, opts)
	if err != nil {
		t.Fatalf("degraded pipeline failed outright: %v", err)
	}
	if !info.Degraded {
		t.Fatal("pipeline did not report degradation")
	}
	if info.DegradedReason == "" {
		t.Error("degradation reason missing")
	}
	if info.UsedFJLT {
		t.Error("UsedFJLT set on a degraded run")
	}
	if tree == nil {
		t.Fatal("no tree from degraded run")
	}
	// Degraded runs embed the original points with MinDist unadjusted and
	// no rescale — domination holds unconditionally, not just w.h.p.
	checkDomination(t, tree, pts)
}

// A non-resilient pipeline on a faulty cluster fails with the injected
// error class — no silent partial results.
func TestChaosWithoutResilienceFailsLoudly(t *testing.T) {
	pts := latticePts(t, 3, 32, 300, 32)
	c := pipelineCluster()
	c.InjectFaults(&mpc.FaultPlan{Seed: 11, Transient: 1, MaxFaults: 1})
	_, _, err := EmbedPipeline(c, pts, pipelineOpts(9))
	if !errors.Is(err, mpc.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected class", err)
	}
}

// Crash-only chaos at a higher rate, exercising store loss + restore on
// the embed stage as well.
func TestChaosCrashHeavy(t *testing.T) {
	pts := latticePts(t, 4, 40, 300, 32)
	opts := pipelineOpts(13)
	opts.Resilient = true
	opts.MaxRetries = 80

	base, _, err := EmbedPipeline(pipelineCluster(), pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := pipelineCluster()
	c.InjectFaults(&mpc.FaultPlan{Seed: 555, Crash: 0.2})
	tree, info, err := EmbedPipeline(c, pts, opts)
	if err != nil {
		t.Fatalf("crash-heavy run failed: %v (faults %+v)", err, info.Faults)
	}
	if info.Faults.Crashes == 0 {
		t.Fatal("no crashes injected at 20%")
	}
	if info.Degraded {
		t.Fatalf("degraded under crash chaos: %s", info.DegradedReason)
	}
	if !bytes.Equal(treeBytes(t, tree), treeBytes(t, base)) {
		t.Error("crash-recovered tree differs from fault-free tree")
	}
}
