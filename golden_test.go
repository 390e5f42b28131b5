package mpctree

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/fjlt"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcembed"
	"mpctree/internal/workload"
)

// Golden output hashes captured before the arena rewrite. Every
// optimization in that rewrite — arena-backed record payloads, interned
// grid keys, reused round buffers — claims bit-identical output; these
// tests are that claim, pinned. If a future change legitimately alters
// embedding bytes (a new algorithm, a changed record shape), regenerate
// the constants and say so in the commit; if one fails unexpectedly, the
// optimization broke the determinism contract.
const (
	goldenPipelineSeed1 = "1e56167cb081086d87290f078baffbab26762b8b39956bc4b70e217f00529c4f"
	goldenPipelineSeed2 = "b2b84a20b5c86118a22dc714f2892fc71283a28aec6cc76c52cc95a38c15052e"
	goldenMPCEmbed      = "cba791683829a2b26c7b9c73e2fbac5a634cc87e141132603dd9e549d1556e7d"
	goldenMPCEmbedPaths = "24de83413cdd514d293480ca05384cdadb979ef26551698e366034d0aba0dbf7"
	goldenFJLTApplyAll  = "e052876748f8d04e5b8f0bc6f58647b970c103664bac480c76da19174cd55f0d"
	goldenFJLTApplyMPC  = "8586524f601454cd77cdc887fa5131acb77c2e56b4cb824045f2ef7281865549"
	goldenCoreEmbed     = "95cf28255094e9c67644bc5c93894baf2fc44fb565bc8786d4d1111cc9e170a6"
	goldenMPCHighdim    = "3078476d6e0f5b95645d1cac31cdba1418b92d853fc2f92929b134a5a3e62c24"
)

func treeHash(t *testing.T, tr *Tree) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

func floatHash(pts [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range pts {
		for _, v := range p {
			u := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGoldenPipeline(t *testing.T) {
	for seed, want := range map[uint64]string{1: goldenPipelineSeed1, 2: goldenPipelineSeed2} {
		pts := workload.UniformLattice(5, 48, 96, 512)
		tr, _, err := EmbedMPC(pts, MPCOptions{
			Machines: 8, CapWords: 1 << 22, Seed: seed,
			Xi: 0.3, CK: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := treeHash(t, tr); got != want {
			t.Errorf("pipeline seed=%d hash = %s, golden %s", seed, got, want)
		}
	}
}

func TestGoldenMPCEmbed(t *testing.T) {
	pts := workload.UniformLattice(9, 40, 16, 64)
	c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 20})
	tr, _, err := mpcembed.Embed(c, pts, mpcembed.Options{R: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := treeHash(t, tr); got != goldenMPCEmbed {
		t.Errorf("mpcembed hash = %s, golden %s", got, goldenMPCEmbed)
	}
}

func TestGoldenMPCEmbedPaths(t *testing.T) {
	pts := workload.UniformLattice(11, 32, 12, 64)
	c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 20})
	tr, _, err := mpcembed.Embed(c, pts, mpcembed.Options{R: 3, Seed: 13, EmitPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := treeHash(t, tr.Compress()); got != goldenMPCEmbedPaths {
		t.Errorf("mpcembed-paths hash = %s, golden %s", got, goldenMPCEmbedPaths)
	}
}

func TestGoldenFJLTApplyAll(t *testing.T) {
	pts := workload.UniformLattice(3, 96, 200, 128)
	tr, err := fjlt.New(len(pts), len(pts[0]), fjlt.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := tr.ApplyAll(pts)
	conv := make([][]float64, len(out))
	for i := range out {
		conv[i] = out[i]
	}
	if got := floatHash(conv); got != goldenFJLTApplyAll {
		t.Errorf("fjlt.ApplyAll hash = %s, golden %s", got, goldenFJLTApplyAll)
	}
}

func TestGoldenFJLTApplyMPC(t *testing.T) {
	pts := workload.UniformLattice(4, 32, 120, 64)
	p, err := fjlt.NewParams(len(pts), len(pts[0]), fjlt.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	c := mpc.New(mpc.Config{Machines: 6, CapWords: 1 << 20})
	out, err := fjlt.ApplyMPC(c, pts, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	conv := make([][]float64, len(out))
	for i := range out {
		conv[i] = out[i]
	}
	if got := floatHash(conv); got != goldenFJLTApplyMPC {
		t.Errorf("fjlt.ApplyMPC hash = %s, golden %s", got, goldenFJLTApplyMPC)
	}
}

func TestGoldenCoreEmbed(t *testing.T) {
	pts := workload.UniformLattice(6, 160, 12, 256)
	tr, _, err := core.Embed(pts, core.Options{Method: core.MethodHybrid, R: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := treeHash(t, tr); got != goldenCoreEmbed {
		t.Errorf("core.Embed hash = %s, golden %s", got, goldenCoreEmbed)
	}
}

// TestGoldenMPCHighdim pins one EmbedMPC tree at the build-highdim
// benchmark's shape (n = 256, d = 1024, 8 machines, cap 1<<22): the
// FJLT runs, and the root paths search 124 buckets of k = 2 over 21
// levels, a scale the other goldens do not reach.
func TestGoldenMPCHighdim(t *testing.T) {
	if testing.Short() {
		t.Skip("one full-size embed under -short")
	}
	pts := workload.UniformLattice(9, 256, 1024, 1024)
	tr, _, err := EmbedMPC(pts, MPCOptions{Machines: 8, CapWords: 1 << 22, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := treeHash(t, tr); got != goldenMPCHighdim {
		t.Errorf("highdim EmbedMPC hash = %s, golden %s", got, goldenMPCHighdim)
	}
}
