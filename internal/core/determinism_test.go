package core

import (
	"bytes"
	"runtime"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/workload"
)

// End-to-end width invariance: the sequential embedding and the full
// Theorem-1 MPC pipeline must produce byte-identical trees at GOMAXPROCS=1
// and GOMAXPROCS=8. This is the top-level statement of the reproducibility
// contract — everything below (fjlt, hadamard, partition, mpcembed, vec)
// feeds into these two entry points.

func embedBytes(t *testing.T, m Method, r, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	pts := workload.UniformLattice(81, 48, 8, 512)
	tree, _, err := Embed(pts, Options{Method: m, R: r, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEmbedWorkerInvariant(t *testing.T) {
	cases := []struct {
		name string
		m    Method
		r    int
	}{
		{"grid", MethodGrid, 0},
		{"hybrid", MethodHybrid, 4},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			if !bytes.Equal(embedBytes(t, cse.m, cse.r, 1), embedBytes(t, cse.m, cse.r, 8)) {
				t.Fatal("tree bytes differ between GOMAXPROCS=1 and GOMAXPROCS=8")
			}
		})
	}
}

func TestEmbedPipelineWorkerInvariant(t *testing.T) {
	pts := workload.UniformLattice(85, 40, 96, 512)
	run := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 22})
		tree, _, err := EmbedPipeline(c, pts, PipelineOptions{
			Xi:   0.3,
			CK:   1,
			Seed: 87,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(1), run(8)) {
		t.Fatal("pipeline tree bytes differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}
