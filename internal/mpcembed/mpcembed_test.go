package mpcembed

import (
	"bytes"
	"errors"
	"hash/fnv"
	"strings"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/obs"
	"mpctree/internal/partition"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

func latticePts(t testing.TB, seed uint64, n, d, delta int) []vec.Point {
	t.Helper()
	r := rng.New(seed)
	seen := map[string]bool{}
	pts := make([]vec.Point, 0, n)
	for len(pts) < n {
		p := make(vec.Point, d)
		key := ""
		for j := range p {
			v := 1 + r.Intn(delta)
			p[j] = float64(v)
			key += string(rune(v)) + ","
		}
		if !seen[key] {
			seen[key] = true
			pts = append(pts, p)
		}
	}
	return pts
}

func bigCluster(machines int) *mpc.Cluster {
	return mpc.New(mpc.Config{Machines: machines, CapWords: 1 << 22})
}

func TestEmbedDomination(t *testing.T) {
	pts := latticePts(t, 1, 80, 4, 64)
	for seed := uint64(0); seed < 3; seed++ {
		c := bigCluster(4)
		tr, info, err := Embed(c, pts, Options{R: 2, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v (info %+v)", seed, err, info)
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				if tr.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
					t.Fatalf("domination violated for (%d,%d)", i, j)
				}
			}
		}
	}
}

// An input whose aspect ratio needs more than partition.MaxLevels levels
// stops at MaxLevels, and every pair stays dominated: points still
// sharing a cluster there get sibling leaves one level below.
func TestEmbedLevelCap(t *testing.T) {
	pts := []vec.Point{{0}, {1}, {7}, {0x1p50}}
	tr, info, err := Embed(bigCluster(2), pts, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.Levels != partition.MaxLevels {
		t.Errorf("Levels = %d, want partition.MaxLevels = %d", info.Levels, partition.MaxLevels)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if tr.Dist(i, j) < vec.Dist(pts[i], pts[j]) {
				t.Errorf("dist_T(%d,%d) = %g < %g", i, j, tr.Dist(i, j), vec.Dist(pts[i], pts[j]))
			}
		}
	}
}

// Theorem 1: O(1) rounds — the MPC round count must not grow with n.
func TestConstantRounds(t *testing.T) {
	var rounds []int
	for _, n := range []int{32, 128, 512} {
		pts := latticePts(t, 2, n, 4, 128)
		c := bigCluster(8)
		if _, _, err := Embed(c, pts, Options{R: 2, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, c.Metrics().Rounds)
	}
	// All runs share the machine count, so broadcast depth is equal;
	// round counts must be identical across n.
	if rounds[0] != rounds[1] || rounds[1] != rounds[2] {
		t.Errorf("rounds grew with n: %v", rounds)
	}
	if rounds[0] > 12 {
		t.Errorf("suspiciously many rounds: %v", rounds)
	}
}

func TestResultsIndependentOfMachineCount(t *testing.T) {
	pts := latticePts(t, 3, 60, 4, 64)
	dist := func(machines int) [][]float64 {
		c := bigCluster(machines)
		tr, _, err := Embed(c, pts, Options{R: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]float64, len(pts))
		for i := range out {
			out[i] = make([]float64, len(pts))
			for j := range out[i] {
				out[i][j] = tr.Dist(i, j)
			}
		}
		return out
	}
	a := dist(2)
	b := dist(7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("metric differs between 2 and 7 machines at (%d,%d)", i, j)
			}
		}
	}
}

func TestGridsDontFitReportsFailure(t *testing.T) {
	// r=1 in 8 dimensions: U = 2^Ω(d log d) grids cannot fit in a small
	// machine — the Lemma 8 check must fire with ErrGridsDontFit before
	// any work happens. This is the paper's core argument for hybrid
	// partitioning.
	pts := latticePts(t, 4, 64, 8, 64)
	c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 15})
	_, _, err := Embed(c, pts, Options{R: 1, Seed: 5})
	if !errors.Is(err, ErrGridsDontFit) {
		t.Fatalf("want ErrGridsDontFit, got %v", err)
	}
	// With r=4 (k=2 per bucket) the same cluster succeeds.
	c2 := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 15})
	if _, _, err := Embed(c2, pts, Options{R: 4, Seed: 5}); err != nil {
		t.Fatalf("hybrid with r=4 should fit: %v", err)
	}
}

func TestCoverageFailureReported(t *testing.T) {
	pts := latticePts(t, 5, 100, 4, 64)
	c := bigCluster(4)
	// One grid per (level,bucket) with k=4: coverage is hopeless and must
	// be reported as ErrCoverage, matching Theorem 1's failure mode.
	_, _, err := Embed(c, pts, Options{R: 1, MaxGrids: 1, Seed: 6})
	if !errors.Is(err, ErrCoverage) {
		t.Fatalf("want ErrCoverage, got %v", err)
	}
}

func TestSinglePoint(t *testing.T) {
	c := bigCluster(2)
	tr, _, err := Embed(c, []vec.Point{{5, 5}}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPoints() != 1 {
		t.Error("single point tree wrong")
	}
}

func TestMalformedInputs(t *testing.T) {
	c := bigCluster(2)
	if _, _, err := Embed(c, nil, Options{}); err == nil {
		t.Error("empty accepted")
	}
	c2 := bigCluster(2)
	if _, _, err := Embed(c2, []vec.Point{{1, 2}, {1}}, Options{}); err == nil {
		t.Error("ragged accepted")
	}
	c3 := bigCluster(2)
	if _, _, err := Embed(c3, []vec.Point{{1, 1}, {1, 1}}, Options{}); err == nil {
		t.Error("duplicates accepted")
	}
	c4 := bigCluster(2)
	if _, _, err := Embed(c4, latticePts(t, 8, 8, 2, 16), Options{R: 5}); err == nil {
		t.Error("r > d accepted")
	}
}

func TestPaddingPath(t *testing.T) {
	pts := latticePts(t, 9, 40, 5, 32) // r=2 ⇒ pad to 6
	c := bigCluster(4)
	tr, info, err := Embed(c, pts, Options{R: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if info.Dim != 6 {
		t.Errorf("padded dim = %d", info.Dim)
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if tr.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
				t.Fatal("domination violated on padded input")
			}
		}
	}
}

func TestInfoAccounting(t *testing.T) {
	pts := latticePts(t, 10, 60, 4, 64)
	c := bigCluster(4)
	_, info, err := Embed(c, pts, Options{R: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.U < 1 || info.Levels < 3 || info.GridWords <= 0 {
		t.Errorf("accounting looks wrong: %+v", info)
	}
	m := c.Metrics()
	if m.MaxLocalWords <= 0 || m.TotalSpace <= 0 || m.CommWords <= 0 {
		t.Errorf("metrics not captured: %+v", m)
	}
	if info.Diameter <= 0 {
		t.Error("diameter not computed")
	}
	// The broadcast grid state is resident on every machine, so the peak
	// must reflect its shift words. (GridWords is the plan's per-grid
	// record charge, which the packed sets undercut.)
	k := info.Dim / info.R
	if shiftWords := info.Levels * info.R * info.U * k; m.MaxLocalWords < shiftWords {
		t.Errorf("peak local %d below the %d resident shift words — storage not charged", m.MaxLocalWords, shiftWords)
	}
}

// GridPlan must report the plan Embed runs with the same R, MinDist and
// FailProb — including FailProb 0, which both read as the same default.
func TestGridPlanMatchesEmbed(t *testing.T) {
	shapes := []struct {
		seed           uint64
		n, d, delta, r int
	}{
		{5, 64, 8, 256, 2},
		{10, 60, 4, 64, 2},
		{9, 40, 5, 32, 2}, // padded: d=5 → 6
		{3, 60, 4, 64, 1},
	}
	for _, sh := range shapes {
		pts := latticePts(t, sh.seed, sh.n, sh.d, sh.delta)
		for _, fp := range []float64{0, 0.01} {
			_, info, err := Embed(bigCluster(4), pts, Options{R: sh.r, FailProb: fp, Seed: 1})
			if err != nil {
				t.Fatalf("%+v fp=%v: %v", sh, fp, err)
			}
			u, levels, gridWords := GridPlan(len(pts), sh.d, sh.r, info.Diameter, 0, fp)
			if u != info.U || levels != info.Levels || gridWords != info.GridWords {
				t.Errorf("%+v fp=%v: GridPlan (u=%d, levels=%d, words=%d), Embed ran (u=%d, levels=%d, words=%d)",
					sh, fp, u, levels, gridWords, info.U, info.Levels, info.GridWords)
			}
		}
	}
}

// The MPC tree's distortion should be in the same ballpark as the
// sequential hybrid embedding — compare mean distortion across seeds.
func TestDistortionComparableToSequential(t *testing.T) {
	pts := latticePts(t, 11, 50, 4, 128)
	n := len(pts)
	var mpcSum float64
	var cnt int
	for seed := uint64(0); seed < 5; seed++ {
		c := bigCluster(4)
		tr, _, err := Embed(c, pts, Options{R: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				mpcSum += tr.Dist(i, j) / vec.Dist(pts[i], pts[j])
				cnt++
			}
		}
	}
	mean := mpcSum / float64(cnt)
	if mean < 1 {
		t.Errorf("mean distortion %v < 1: domination broken", mean)
	}
	if mean > 60 {
		t.Errorf("mean distortion %v implausibly large", mean)
	}
}

func BenchmarkEmbedMPC(b *testing.B) {
	pts := latticePts(b, 1, 256, 4, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := bigCluster(8)
		if _, _, err := Embed(c, pts, Options{R: 2, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// Compress must shrink the full-depth MPC tree substantially while
// preserving the metric exactly.
func TestCompressOption(t *testing.T) {
	pts := latticePts(t, 13, 50, 4, 256)
	plain, _, err := Embed(bigCluster(4), pts, Options{R: 2, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	comp := plain.Compress()
	if comp.NumNodes() >= plain.NumNodes() {
		t.Errorf("compression did not shrink: %d vs %d nodes", comp.NumNodes(), plain.NumNodes())
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if diff := plain.Dist(i, j) - comp.Dist(i, j); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("metric changed at (%d,%d)", i, j)
			}
		}
	}
	t.Logf("compression: %d → %d nodes", plain.NumNodes(), comp.NumNodes())
}

// gridSetTransport is the reference transport with one grid set mangled on
// one machine: appends to victim pass the (level 1, bucket 0) set — the
// first set every point's path consults — through mangle, which may drop
// it (nil) or replace it.
type gridSetTransport struct {
	mpc.Transport
	victim int
	mangle func(mpc.Record) *mpc.Record
}

func (t gridSetTransport) Append(m int, recs []mpc.Record) error {
	if m == t.victim {
		kept := make([]mpc.Record, 0, len(recs))
		for _, rec := range recs {
			if rec.Tag == TagGrid && rec.Ints[0] == 1 && rec.Ints[1] == 0 {
				if got := t.mangle(rec); got != nil {
					kept = append(kept, *got)
				}
				continue
			}
			kept = append(kept, rec)
		}
		recs = kept
	}
	return t.Transport.Append(m, recs)
}

// A machine missing a broadcast grid set, or holding one a shift short,
// must fail the root-paths round, not compute paths against grids it never
// received.
func TestMissingGridFailsRound(t *testing.T) {
	pts := latticePts(t, 1, 64, 4, 64)
	const machines = 4
	for _, tc := range []struct {
		name   string
		mangle func(mpc.Record) *mpc.Record
		want   string
	}{
		{"missing", func(mpc.Record) *mpc.Record { return nil }, "grid set (level 1, bucket 0) missing"},
		{"truncated", func(rec mpc.Record) *mpc.Record {
			const k = 2 // d = 4 over R = 2 buckets
			rec.Data = rec.Data[:len(rec.Data)-k]
			return &rec
		}, "grid set (level 1, bucket 0) holds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mpc.NewWithTransport(mpc.Config{Machines: machines, CapWords: 1 << 22},
				gridSetTransport{Transport: mpc.NewLocalTransport(machines), victim: 1, mangle: tc.mangle})
			_, _, err := Embed(c, pts, Options{R: 2, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), "machine 1 panicked") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("embed with grid set %s on machine 1: %v", tc.name, err)
			}
		})
	}
}

// chainNext is FNV-128a written out: it must equal hash/fnv over the
// previous id and the level id, byte for byte.
func TestChainNextMatchesFNV128a(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 2000; trial++ {
		var prev [16]byte
		for i := range prev {
			prev[i] = byte(r.Uint64())
		}
		levelID := make([]byte, r.Intn(120))
		for i := range levelID {
			levelID[i] = byte(r.Uint64())
		}
		h := fnv.New128a()
		h.Write(prev[:])
		h.Write(levelID)
		if got, want := chainNext(prev, levelID), h.Sum(nil); !bytes.Equal(got[:], want) {
			t.Fatalf("chainNext(%x, %x) = %x, hash/fnv gives %x", prev, levelID, got, want)
		}
	}
}

// The union costs no round: root_paths sends every edge, leaf and path
// record to the owner of its key, each owner drops its duplicate edges in
// place, and the tree_build phase moves nothing. With EmitPaths, the path
// records are all that stays resident once the tree is assembled.
func TestUnionRecordsOnTheirOwners(t *testing.T) {
	pts := latticePts(t, 21, 300, 4, 256)
	const machines = 5
	c := bigCluster(machines)
	root := obs.NewSpan("embed")
	tr, _, err := Embed(c, pts, Options{R: 2, Seed: 8, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	edges := map[string]bool{}
	leaves := 0
	for m := 0; m < machines; m++ {
		for _, rec := range c.Store(m) {
			switch rec.Tag {
			case TagEdge, TagLeaf:
				if owner := mpc.Owner(rec.Key, machines); owner != m {
					t.Fatalf("record %q (tag %d) on machine %d, owner %d", rec.Key, rec.Tag, m, owner)
				}
			}
			switch rec.Tag {
			case TagEdge:
				if edges[rec.Key] {
					t.Fatalf("edge %x resident twice", rec.Key)
				}
				edges[rec.Key] = true
			case TagLeaf:
				leaves++
			}
		}
	}
	// One resident edge per internal node: every node but the root and
	// the n leaves.
	if want := tr.NumNodes() - 1 - len(pts); len(edges) != want {
		t.Errorf("%d resident edges, tree has %d internal nodes", len(edges), want)
	}
	if leaves != len(pts) {
		t.Errorf("%d resident leaves for %d points", leaves, len(pts))
	}
	var build *obs.SpanSnapshot
	var rounds int64
	for _, ph := range root.Snapshot().Children {
		rounds += ph.Metrics["rounds"]
		if ph.Name == "tree_build" {
			build = ph
		}
	}
	if build == nil {
		t.Fatal("no tree_build span")
	}
	for _, key := range []string{"rounds", "comm_words"} {
		if v, ok := build.Metrics[key]; !ok || v != 0 {
			t.Errorf("tree_build %s = %d (recorded %v), want 0", key, v, ok)
		}
	}
	if got := c.Metrics().Rounds; rounds != int64(got) {
		t.Errorf("phase spans carry %d rounds, the cluster ran %d", rounds, got)
	}

	// An EmitPaths run keeps only TagPath records, each on its owner, one
	// per point, and the tree is the same.
	c = bigCluster(machines)
	trPaths, _, err := Embed(c, pts, Options{R: 2, Seed: 8, EmitPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if trPaths.NumNodes() != tr.NumNodes() {
		t.Errorf("EmitPaths tree has %d nodes, plain tree %d", trPaths.NumNodes(), tr.NumNodes())
	}
	paths := 0
	for m := 0; m < machines; m++ {
		for _, rec := range c.Store(m) {
			if rec.Tag != TagPath {
				t.Fatalf("EmitPaths run left a record with tag %d resident on machine %d", rec.Tag, m)
			}
			if owner := mpc.Owner(rec.Key, machines); owner != m {
				t.Fatalf("path %q on machine %d, owner %d", rec.Key, m, owner)
			}
			paths++
		}
	}
	if paths != len(pts) {
		t.Errorf("%d resident paths for %d points", paths, len(pts))
	}
}
