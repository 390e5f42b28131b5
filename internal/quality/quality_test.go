package quality_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/stats"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

func buildTree(t *testing.T, pts []vec.Point, seed uint64) *hst.Tree {
	t.Helper()
	tree, _, err := core.Embed(pts, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func testPoints(n int) []vec.Point {
	return workload.UniformLattice(7, n, 6, 1<<10)
}

func TestSamplePairsDeterministicSortedDistinct(t *testing.T) {
	a := quality.SamplePairs(42, 100, 300)
	b := quality.SamplePairs(42, 100, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, n, maxPairs) produced different samples")
	}
	if len(a) != 300 {
		t.Fatalf("got %d pairs, want 300", len(a))
	}
	seen := map[[2]int]bool{}
	for k, pr := range a {
		if pr[0] >= pr[1] {
			t.Fatalf("pair %v not i<j", pr)
		}
		if seen[pr] {
			t.Fatalf("duplicate pair %v", pr)
		}
		seen[pr] = true
		if k > 0 && (a[k-1][0] > pr[0] || (a[k-1][0] == pr[0] && a[k-1][1] >= pr[1])) {
			t.Fatalf("pairs not lexicographically sorted at %d: %v after %v", k, pr, a[k-1])
		}
	}
	if c := quality.SamplePairs(43, 100, 300); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestSamplePairsFullEnumeration(t *testing.T) {
	n := 20
	total := n * (n - 1) / 2
	for _, maxPairs := range []int{-1, total, total + 5} {
		pairs := quality.SamplePairs(1, n, maxPairs)
		if len(pairs) != total {
			t.Fatalf("maxPairs=%d: got %d pairs, want all %d", maxPairs, len(pairs), total)
		}
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if pairs[k] != [2]int{i, j} {
					t.Fatalf("pair %d = %v, want [%d %d]", k, pairs[k], i, j)
				}
				k++
			}
		}
	}
}

func TestAuditBitIdenticalAcrossWorkers(t *testing.T) {
	pts := testPoints(120)
	tree := buildTree(t, pts, 3)
	audit := func(procs int) *quality.Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rep, err := quality.Audit(tree, pts, quality.Config{MaxPairs: 600, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if base, rep := audit(1), audit(8); !reflect.DeepEqual(base, rep) {
		t.Fatalf("GOMAXPROCS=8 report differs from GOMAXPROCS=1:\n%+v\nvs\n%+v", rep, base)
	}
}

func TestAuditMatchesOfflineMeasurement(t *testing.T) {
	pts := testPoints(90)
	tree := buildTree(t, pts, 5)
	rep, err := quality.Audit(tree, pts, quality.Config{MaxPairs: -1})
	if err != nil {
		t.Fatal(err)
	}
	off, err := stats.MeasureDistortion(pts, 1, func(uint64) (*hst.Tree, error) { return tree, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanRatio != off.MeanRatio || rep.MinRatio != off.MinRatio ||
		rep.MaxRatio != off.MaxMeanRatio || rep.P95Ratio != off.P95Ratio ||
		rep.SampledPairs != off.Pairs {
		t.Fatalf("full audit %+v disagrees with offline %+v", rep, off)
	}
}

func TestAuditDominationAndLevels(t *testing.T) {
	pts := testPoints(100)
	tree := buildTree(t, pts, 11)
	rep, err := quality.Audit(tree, pts, quality.Config{MaxPairs: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DominationViolations != 0 {
		t.Fatalf("sequential tree reported %d domination violations (min ratio %v, pair %v)",
			rep.DominationViolations, rep.MinRatio, rep.MinPair)
	}
	if rep.MinRatio < 1-1e-9 {
		t.Fatalf("min ratio %v < 1", rep.MinRatio)
	}
	if len(rep.Levels) == 0 {
		t.Fatal("no level stats")
	}
	together := rep.SampledPairs
	for _, st := range rep.Levels {
		if st.Together != together {
			t.Fatalf("level %d: together=%d, want %d (conservation: together_ℓ = together_{ℓ-1} − separated_{ℓ-1})",
				st.Level, st.Together, together)
		}
		together -= st.Separated
		if st.DiamRatio > 1+1e-9 {
			t.Fatalf("level %d: diameter ratio %v > 1 violates Lemma 1 (bound %v, max dist %v)",
				st.Level, st.DiamRatio, st.DiamBound, st.MaxSamePartDist)
		}
	}
	if together != 0 {
		t.Fatalf("%d pairs never separated — every finite-distance pair must separate by the leaf level", together)
	}
}

func TestAuditLeavesTreeBytesUntouched(t *testing.T) {
	pts := testPoints(80)
	tree := buildTree(t, pts, 13)
	var before, after bytes.Buffer
	if _, err := tree.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	if _, err := quality.Audit(tree, pts, quality.Config{MaxPairs: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("auditing mutated the tree's serialized bytes")
	}
}

func TestAuditBoundAlarm(t *testing.T) {
	pts := testPoints(60)
	tree := buildTree(t, pts, 17)
	rep, err := quality.Audit(tree, pts, quality.Config{MaxPairs: -1, MaxMeanRatio: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BoundViolated {
		t.Fatalf("mean ratio %v did not trip an absurdly tight alarm", rep.MeanRatio)
	}
	rep, err = quality.Audit(tree, pts, quality.Config{MaxPairs: -1, MaxMeanRatio: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundViolated {
		t.Fatal("infinite alarm threshold reported violated")
	}
}

func TestAuditErrors(t *testing.T) {
	pts := testPoints(30)
	tree := buildTree(t, pts, 19)
	if _, err := quality.Audit(nil, pts, quality.Config{}); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := quality.Audit(tree, pts[:2], quality.Config{}); err == nil {
		t.Fatal("point-count mismatch accepted")
	}
	if _, err := quality.Audit(tree, nil, quality.Config{}); err == nil {
		t.Fatal("empty point set accepted")
	}
}

func TestCollectorPublishesSeries(t *testing.T) {
	pts := testPoints(50)
	tree := buildTree(t, pts, 23)
	reg := obs.New()
	col := quality.NewCollector(reg, quality.Config{MaxPairs: 200, Seed: 4}, "tree", "demo")
	rep, err := quality.Audit(tree, pts, col.Config())
	if err != nil {
		t.Fatal(err)
	}
	col.ObserveAudit(rep)
	if col.Last() != rep {
		t.Fatal("Last() did not return the observed report")
	}
	got := map[string]float64{}
	var histCount int64
	for _, v := range reg.Snapshot() {
		switch v.Name {
		case "quality_distortion_ratio":
			histCount += v.Count
		default:
			got[v.Name] += v.Value
		}
	}
	if got["quality_audit_runs_total"] != 1 {
		t.Fatalf("quality_audit_runs_total = %v, want 1", got["quality_audit_runs_total"])
	}
	if got["quality_audit_pairs_total"] != float64(rep.SampledPairs) {
		t.Fatalf("quality_audit_pairs_total = %v, want %d", got["quality_audit_pairs_total"], rep.SampledPairs)
	}
	if histCount != int64(rep.SampledPairs) {
		t.Fatalf("histogram count %d, want %d", histCount, rep.SampledPairs)
	}
	if got["quality_domination_violations_total"] != 0 {
		t.Fatalf("quality_domination_violations_total = %v", got["quality_domination_violations_total"])
	}
	if got["quality_mean_distortion_ratio"] != rep.MeanRatio {
		t.Fatalf("mean gauge %v != report mean %v", got["quality_mean_distortion_ratio"], rep.MeanRatio)
	}
	sep := 0.0
	for _, v := range reg.Snapshot() {
		if v.Name == "quality_separation_events_total" {
			sep += v.Value
			if v.Labels["tree"] != "demo" || v.Labels["level"] == "" {
				t.Fatalf("separation series missing labels: %v", v.Labels)
			}
		}
	}
	if sep != float64(rep.SampledPairs) {
		t.Fatalf("separation events sum %v, want %d (every nonzero pair separates exactly once)", sep, rep.SampledPairs)
	}
	// Nil collector: all observation paths must be no-ops.
	var nilCol *quality.Collector
	nilCol.ObserveAudit(rep)
	if nilCol.Last() != nil || nilCol.Config() != (quality.Config{}) {
		t.Fatal("nil collector not inert")
	}
}

func TestThm2Bound(t *testing.T) {
	if b := quality.Thm2Bound(16, 4, 10); b != 4*8*10 {
		t.Fatalf("quality.Thm2Bound(16,4,10) = %v, want 320", b)
	}
	if b := quality.Thm2Bound(0, 0, 0); b <= 0 {
		t.Fatalf("degenerate inputs gave non-positive bound %v", b)
	}
}
