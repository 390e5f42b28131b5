package mpcembed

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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
// each machine's records as assemble reads them: the deduplicated edge
// and leaf records, followed, with emitPaths, by the path records an
// EmitPaths run keeps. It also returns the run's Info and tree bytes.
func residentUnion(t *testing.T, pts []vec.Point, machines int, opt Options, emitPaths bool) ([][]mpc.Record, *Info, []byte) {
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
	want := treeBytes(t, tr)
	if emitPaths {
		c := bigCluster(machines)
		opt.EmitPaths = true
		tr, _, err := Embed(c, pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(treeBytes(t, tr), want) {
			t.Fatal("EmitPaths changed the tree")
		}
		for m := range stores {
			stores[m] = append(stores[m], c.Store(m)...)
		}
	}
	return stores, info, want
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

// assembleNoPanic runs assemble and fails the test if it panics.
func assembleNoPanic(t *testing.T, c *mpc.Cluster, n, levels int) (tr *hst.Tree, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("assemble panicked: %v", p)
		}
	}()
	return assemble(c, n, levels)
}

// TestAssembleMatchesOracle pins assemble to the parent's assembly, and
// both to Embed's tree, byte for byte, on the resident records of embeds
// of several shapes (bucket counts with and without padding buckets, one
// to eight machines), with and without path records among them, and with
// every machine's store in delivery order and shuffled.
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
		for _, emitPaths := range []bool{false, true} {
			stores, info, want := residentUnion(t, pts, sh.machines, Options{R: sh.r, Seed: uint64(i) + 1}, emitPaths)
			for _, shuffle := range []bool{false, true} {
				if shuffle {
					for _, st := range stores {
						for a := len(st) - 1; a > 0; a-- {
							b := shuffler.Intn(a + 1)
							st[a], st[b] = st[b], st[a]
						}
					}
				}
				name := fmt.Sprintf("n=%d d=%d r=%d M=%d paths=%v shuffled=%v", sh.n, sh.d, sh.r, sh.machines, emitPaths, shuffle)
				c := loaded(t, stores)
				got, err := assembleNoPanic(t, c, sh.n, info.Levels)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref, err := oracleAssemble(c, sh.n)
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
}

// TestAssembleErrors corrupts the resident union one way at a time:
// assemble must return an error, never panic, and, where the oracle
// returns one too, the same error.
func TestAssembleErrors(t *testing.T) {
	pts := latticePts(t, 3, 60, 8, 64)
	base, info, _ := residentUnion(t, pts, 4, Options{R: 7, Seed: 5}, true)
	n, levels := len(pts), info.Levels
	// find returns the position of the k-th record (k ≥ 0) that keep
	// accepts.
	find := func(keep func(mpc.Record) bool, k int) (int, int) {
		for m, st := range base {
			for i, rec := range st {
				if keep(rec) {
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
	isLeaf := func(r mpc.Record) bool { return r.Tag == TagLeaf }
	deepEdge := func(r mpc.Record) bool { return r.Tag == TagEdge && r.Ints[0] >= 2 }
	withInts := func(r mpc.Record, ints ...int64) mpc.Record { r.Ints = ints; return r }

	cases := []struct {
		name string
		edit func(st [][]mpc.Record) [][]mpc.Record
		// oracle: the oracle returns the same error (rather than panic
		// or build a tree).
		oracle bool
		is     error
	}{
		{"coverage failure", func(st [][]mpc.Record) [][]mpc.Record {
			st[1] = append(st[1], mpc.Record{Tag: TagFail, Ints: []int64{7, 3, 5}})
			st[3] = append(st[3], mpc.Record{Tag: TagFail, Ints: []int64{2, 1, 0}})
			return st
		}, true, ErrCoverage},
		{"missing leaf", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(isLeaf, 0)
			st[m] = append(st[m][:i:i], st[m][i+1:]...)
			return st
		}, true, nil},
		{"extra leaf", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(isLeaf, 4)
			st[0] = append(st[0], st[m][i])
			return st
		}, true, nil},
		{"one leaf twice, one missing", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(isLeaf, 0)
			m2, i2 := find(isLeaf, 9)
			st[m][i] = st[m2][i2]
			return st
		}, false, nil},
		{"leaf point out of range", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(isLeaf, 2)
			r := st[m][i]
			st[m][i] = withInts(r, int64(n), r.Ints[1], r.Ints[2], r.Ints[3])
			return st
		}, false, nil},
		{"leaf with unknown parent", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(isLeaf, 3)
			r := st[m][i]
			st[m][i] = withInts(r, r.Ints[0], r.Ints[1], r.Ints[2]^1, r.Ints[3])
			return st
		}, true, nil},
		{"edge with unknown parent", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(deepEdge, 5)
			r := st[m][i]
			st[m][i] = withInts(r, r.Ints[0], r.Ints[1], r.Ints[2]^1)
			return st
		}, true, nil},
		{"edge below the last level", func(st [][]mpc.Record) [][]mpc.Record {
			m, i := find(deepEdge, 1)
			r := st[m][i]
			st[m][i] = withInts(r, int64(levels+3), r.Ints[1], r.Ints[2])
			return st
		}, false, nil},
	}
	for _, tc := range cases {
		stores := make([][]mpc.Record, len(base))
		for m := range base {
			stores[m] = append([]mpc.Record(nil), base[m]...)
		}
		c := loaded(t, tc.edit(stores))
		tr, err := assembleNoPanic(t, c, n, levels)
		if err == nil {
			t.Fatalf("%s: assemble built a %d-node tree", tc.name, tr.NumNodes())
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Fatalf("%s: %v, want %v", tc.name, err, tc.is)
		}
		if tc.oracle {
			if _, want := oracleAssemble(c, n); want == nil || err.Error() != want.Error() {
				t.Fatalf("%s: %v, oracle %v", tc.name, err, want)
			}
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
