package hst_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"mpctree"
	"mpctree/internal/hst"
	"mpctree/internal/workload"
)

// TestEmbedMPCTreesAreLevelUniform pins the property KNN's fast path
// rests on: an EmbedMPC tree of each shape the benchmark builds or
// serves, loaded back as the serving tier loads it, is level-uniform,
// and its KNN answers are the oracle's bit for bit. A change to
// Algorithm 2 that loses the property fails here instead of silently
// slowing KNN.
func TestEmbedMPCTreesAreLevelUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("embeds three 256–4096-point trees")
	}
	shapes := []struct {
		name        string
		n, d, delta int
		capWords    int // 0: the fully scalable default
	}{
		{"serve", 4096, 2, 1024, 1 << 22},
		{"build-manypoints", 4096, 8, 1024, 0},
		{"build-highdim", 256, 1024, 1024, 1 << 22},
	}
	for i, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			seed := uint64(7 + i)
			pts := workload.UniformLattice(seed, sh.n, sh.d, sh.delta)
			tree, _, err := mpctree.EmbedMPC(pts, mpctree.MPCOptions{Machines: 8, CapWords: sh.capWords, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := tree.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := hst.ReadTree(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !hst.LevelUniform(tree) || !hst.LevelUniform(loaded) {
				t.Fatalf("EmbedMPC tree is not level-uniform (built %v, loaded %v)", hst.LevelUniform(tree), hst.LevelUniform(loaded))
			}
			// The oracle's answer for k is the first k of its answer for
			// n−1, so one oracle call per point checks every k.
			n := loaded.NumPoints()
			start := time.Now()
			for p := 0; p < n; p += n / 16 {
				all := hst.OracleKNN(loaded, p, n-1)
				for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 64, n - 1} {
					if got := loaded.KNN(p, k); !slices.Equal(got, all[:k]) {
						t.Fatalf("KNN(%d, %d) = %v, oracle %v", p, k, got, all[:k])
					}
				}
			}
			t.Logf("%d-node tree; KNN matched the oracle in %v", loaded.NumNodes(), time.Since(start))
		})
	}
}
