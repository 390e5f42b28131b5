package mpcembed

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mpctree/internal/grid"
	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// treeBytes is t's WriteTo encoding.
func treeBytes(t *testing.T, tr *hst.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// residentUnion embeds pts over the given number of machines and returns
// each machine's records as assemble reads them, the path records the run
// leaves resident, with the run's Info and tree bytes.
func residentUnion(t *testing.T, pts []vec.Point, machines int, opt Options) ([][]mpc.Record, *Info, []byte) {
	t.Helper()
	c := bigCluster(machines)
	tr, info, err := Embed(c, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([][]mpc.Record, machines)
	for m := range stores {
		stores[m] = append([]mpc.Record(nil), c.Store(m)...)
	}
	return stores, info, treeBytes(t, tr)
}

// loaded returns a cluster whose machine m holds exactly stores[m].
func loaded(t *testing.T, stores [][]mpc.Record) *mpc.Cluster {
	t.Helper()
	c := bigCluster(len(stores))
	if err := c.LocalMap(func(m int, _ []mpc.Record) []mpc.Record { return stores[m] }); err != nil {
		t.Fatal(err)
	}
	return c
}

// runDiamFactor is the 2√r of info's run.
func runDiamFactor(info *Info) float64 { return 2 * math.Sqrt(float64(info.R)) }

// assembleNoPanic runs assemble with the plan of info's run over n points
// and fails the test if it panics.
func assembleNoPanic(t *testing.T, c *mpc.Cluster, n int, info *Info) (tr *hst.Tree, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("assemble panicked: %v", p)
		}
	}()
	return assemble(c, n, info.Levels, info.Diameter, runDiamFactor(info))
}

// TestAssembleMatchesOracle pins assemble to the reference union of the
// path records, and both to Embed's tree, byte for byte, on the resident
// records of embeds of several shapes (bucket counts with and without
// padding buckets, one to eight machines), with every machine's store in
// delivery order and shuffled.
func TestAssembleMatchesOracle(t *testing.T) {
	shapes := []struct {
		n, d, delta, machines, r int
	}{
		{64, 4, 64, 4, 0},
		{200, 8, 256, 8, 7},  // dPad 14, k 2: buckets 4–6 are all padding
		{150, 12, 128, 3, 5}, // dPad 15, k 3: bucket 4 is all padding
		{90, 5, 32, 1, 2},    // dPad 6: bucket 1 is partly padding
		{2, 3, 8, 2, 1},
	}
	shuffler := rng.New(99)
	for i, sh := range shapes {
		pts := latticePts(t, uint64(40+i), sh.n, sh.d, sh.delta)
		stores, info, want := residentUnion(t, pts, sh.machines, Options{R: sh.r, Seed: uint64(i) + 1})
		for _, shuffle := range []bool{false, true} {
			if shuffle {
				for _, st := range stores {
					for a := len(st) - 1; a > 0; a-- {
						b := shuffler.Intn(a + 1)
						st[a], st[b] = st[b], st[a]
					}
				}
			}
			name := fmt.Sprintf("n=%d d=%d r=%d M=%d shuffled=%v", sh.n, sh.d, sh.r, sh.machines, shuffle)
			c := loaded(t, stores)
			got, err := assembleNoPanic(t, c, sh.n, info)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref, err := oracleAssemble(c, sh.n, info.Levels, info.Diameter, runDiamFactor(info))
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			if !bytes.Equal(treeBytes(t, ref), want) {
				t.Fatalf("%s: the oracle's tree differs from Embed's", name)
			}
			if !bytes.Equal(treeBytes(t, got), want) {
				t.Fatalf("%s: assemble's tree differs from the oracle's", name)
			}
		}
	}
}

// TestAssembleErrors corrupts the resident path records one way at a
// time: assemble must return an error, never panic, and the same error as
// the oracle.
func TestAssembleErrors(t *testing.T) {
	pts := latticePts(t, 3, 60, 8, 64)
	base, info, _ := residentUnion(t, pts, 4, Options{R: 7, Seed: 5})
	n, levels := len(pts), info.Levels
	// find returns the position of the k-th path record (k ≥ 0).
	find := func(k int) (int, int) {
		for m, st := range base {
			for i, rec := range st {
				if rec.Tag == TagPath {
					if k == 0 {
						return m, i
					}
					k--
				}
			}
		}
		t.Fatal("no such record")
		return 0, 0
	}
	withInts := func(r mpc.Record, ints ...int64) mpc.Record { r.Ints = ints; return r }
	// A path whose id at level lev+1 another path shares: flipping its id
	// at lev gives that child a second parent.
	shared, sharedLev := func() (int, int) {
		count := map[[3]int64]int{}
		for k := 0; k < n; k++ {
			m, i := find(k)
			for lev := 2; lev <= levels; lev++ {
				r := base[m][i]
				count[[3]int64{int64(lev), r.Ints[2*lev-1], r.Ints[2*lev]}]++
			}
		}
		for k := 0; k < n; k++ {
			m, i := find(k)
			for lev := levels; lev >= 2; lev-- {
				r := base[m][i]
				if count[[3]int64{int64(lev), r.Ints[2*lev-1], r.Ints[2*lev]}] > 1 {
					return k, lev - 1
				}
			}
		}
		t.Fatal("no two paths share an id below level 1")
		return 0, 0
	}()

	cases := []struct {
		name string
		edit func(st [][]mpc.Record) [][]mpc.Record
		is   error
	}{
		{"coverage failure", func(st [][]mpc.Record) [][]mpc.Record {
			st[1] = append(st[1], mpc.Record{Tag: TagFail, Ints: []int64{7, 3, 5}})
			st[3] = append(st[3], mpc.Record{Tag: TagFail, Ints: []int64{2, 1, 0}})
			return st
		}, ErrCoverage},
		{"failure record without ints", func(st [][]mpc.Record) [][]mpc.Record {
			st[2] = append(st[2], mpc.Record{Tag: TagFail})
			return st
		}, nil},
		{"missing path", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(0)
			st[m] = append(st[m][:i:i], st[m][i+1:]...)
			return st
		}, nil},
		{"extra path", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(4)
			st[0] = append(st[0], st[m][i])
			return st
		}, nil},
		{"one path twice, one missing", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(0)
			m2, i2 := find(9)
			st[m][i] = st[m2][i2]
			return st
		}, nil},
		{"point out of range", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(2)
			r := st[m][i]
			st[m][i] = withInts(r, append([]int64{int64(n)}, r.Ints[1:]...)...)
			return st
		}, nil},
		{"negative point", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(2)
			r := st[m][i]
			st[m][i] = withInts(r, append([]int64{-1}, r.Ints[1:]...)...)
			return st
		}, nil},
		{"path a level short", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(5)
			r := st[m][i]
			st[m][i] = withInts(r, r.Ints[:len(r.Ints)-2]...)
			return st
		}, nil},
		{"path a level long", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(5)
			r := st[m][i]
			st[m][i] = withInts(r, append(slices.Clone(r.Ints), 1, 2)...)
			return st
		}, nil},
		{"path without ints", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(6)
			st[m][i] = withInts(st[m][i])
			return st
		}, nil},
		{"child with two parents", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(shared)
			r := st[m][i]
			ints := slices.Clone(r.Ints)
			ints[2*sharedLev-1] ^= 1
			st[m][i] = withInts(r, ints...)
			return st
		}, nil},
	}
	for _, tc := range cases {
		stores := make([][]mpc.Record, len(base))
		for m := range base {
			stores[m] = append([]mpc.Record(nil), base[m]...)
		}
		c := loaded(t, tc.edit(stores))
		tr, err := assembleNoPanic(t, c, n, info)
		if err == nil {
			t.Fatalf("%s: assemble built a %d-node tree", tc.name, tr.NumNodes())
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Fatalf("%s: %v, want %v", tc.name, err, tc.is)
		}
		if _, want := oracleAssemble(c, n, levels, info.Diameter, runDiamFactor(info)); want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: %v, oracle %v", tc.name, err, want)
		}
		t.Logf("%s: %v", tc.name, err)
	}
}

// TestCoverageFailsInPaddingBucket checks the once-per-level search of
// a padding bucket on its failure path. With d = 8 and r = 7, buckets
// 4–6 hold only padding, and with 6 grids per (level, bucket) the zero
// vector goes uncovered at some level: every run must return
// ErrCoverage, some must report a padding bucket, and there no grid of
// the set may cover the zero vector.
func TestCoverageFailsInPaddingBucket(t *testing.T) {
	const n, d, r, u = 24, 8, 7, 6
	padReports := 0
	for seed := uint64(1); seed <= 40; seed++ {
		pts := latticePts(t, seed, n, d, 64)
		_, info, err := Embed(bigCluster(4), pts, Options{R: r, MaxGrids: u, Seed: seed})
		if !errors.Is(err, ErrCoverage) {
			t.Fatalf("seed %d: want ErrCoverage, got %v", seed, err)
		}
		var point, lev, bucket int
		if _, serr := fmt.Sscanf(err.Error()[strings.LastIndex(err.Error(), "(point"):], "(point %d, level %d, bucket %d)", &point, &lev, &bucket); serr != nil {
			t.Fatalf("seed %d: cannot read %q: %v", seed, err, serr)
		}
		k := info.Dim / r
		if bucket*k < d {
			continue
		}
		padReports++
		// Redraw the set the way Embed draws it and search it for the
		// zero vector.
		var s float64
		for j := 0; j < d; j++ {
			lo, hi := pts[0][j], pts[0][j]
			for _, p := range pts {
				lo, hi = math.Min(lo, p[j]), math.Max(hi, p[j])
			}
			s += (hi - lo) * (hi - lo)
		}
		diam := math.Sqrt(s)
		cell := 4 * diam / math.Pow(2, float64(lev))
		w := diam / 2
		for l := 1; l < lev; l++ {
			w /= 2
		}
		zero := make(vec.Point, k)
		var rg rng.RNG
		for uu := 0; uu < u; uu++ {
			rg.Reseed(seed, 0x9d1d, uint64(lev), uint64(bucket), uint64(uu))
			g := grid.NewInto(&rg, make(vec.Point, k), cell)
			if _, in := g.InBall(zero, w, nil); in {
				t.Fatalf("seed %d: grid %d of (level %d, bucket %d) covers the zero vector, yet point %d was reported uncovered there", seed, uu, lev, bucket, point)
			}
		}
	}
	if padReports == 0 {
		t.Fatal("no seed reported a coverage failure in a padding bucket")
	}
	t.Logf("%d of 40 seeds reported a padding bucket", padReports)
}

// FuzzAssemblePaths feeds assemble records decoded from arbitrary bytes,
// dealt round-robin over four machines, under the plan of a small real
// run whose records seed the corpus: it must never panic, and any tree it
// builds must be valid with one leaf per point.
func FuzzAssemblePaths(f *testing.F) {
	const machines = 4
	pts := latticePts(f, 7, 12, 3, 16)
	c := bigCluster(machines)
	_, info, err := Embed(c, pts, Options{R: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var recs []mpc.Record
	for m := 0; m < machines; m++ {
		recs = append(recs, c.Store(m)...)
	}
	f.Add(mpc.EncodeRecords(recs))
	f.Add(mpc.EncodeRecords(recs[1:]))
	f.Add(mpc.EncodeRecords(append(slices.Clone(recs), recs[0])))
	f.Add(mpc.EncodeRecords(append(slices.Clone(recs), mpc.Record{Tag: TagFail, Ints: []int64{1, 2, 0}})))
	f.Add(mpc.EncodeRecords([]mpc.Record{{Tag: TagFail}, {Tag: TagPath}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := mpc.DecodeRecords(data)
		if err != nil {
			return
		}
		stores := make([][]mpc.Record, machines)
		for i, rec := range recs {
			stores[i%machines] = append(stores[i%machines], rec)
		}
		tr, err := assembleNoPanic(t, loaded(t, stores), len(pts), info)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("assembled an invalid tree: %v", err)
		}
		leaves := 0
		for _, nd := range tr.Nodes {
			if nd.Point >= 0 {
				leaves++
			}
		}
		if leaves != len(pts) || tr.NumPoints() != len(pts) {
			t.Fatalf("tree has %d leaves over %d points, want %d", leaves, tr.NumPoints(), len(pts))
		}
	})
}
