package mpcembed

import (
	"bytes"
	"runtime"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// Algorithm 2 must yield a byte-identical tree at any GOMAXPROCS: the
// grid draw fans out, the machines run concurrently, and each
// machine's root-path sweep is serial in store order.
func TestEmbedWorkerInvariant(t *testing.T) {
	r := rng.New(71)
	n, d := 40, 8
	pts := make([]vec.Point, n)
	for i := range pts {
		pts[i] = make(vec.Point, d)
		for j := range pts[i] {
			pts[i][j] = float64(1 + r.Intn(512))
		}
	}

	treeBytes := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 22})
		tree, _, err := Embed(c, pts, Options{R: 2, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := treeBytes(1)
	if got := treeBytes(8); !bytes.Equal(got, want) {
		t.Fatalf("GOMAXPROCS=8: tree bytes differ from GOMAXPROCS=1 (%d vs %d bytes)", len(got), len(want))
	}
}
