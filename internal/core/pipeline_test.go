package core

import (
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/vec"
)

func pipelineCluster() *mpc.Cluster {
	return mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 22})
}

// Small-n experiments need the JL constant dialled down or k exceeds the
// ambient dimension; CK=1 is the standard empirical choice.
func pipelineOpts(seed uint64) PipelineOptions {
	return PipelineOptions{Xi: 0.3, CK: 1, Seed: seed}
}

// End-to-end Theorem 1 on genuinely high-dimensional data: the FJLT stage
// must engage, the tree must dominate the ORIGINAL distances (post-rescale)
// and the whole thing must take O(1) rounds.
func TestPipelineHighDimensional(t *testing.T) {
	pts := latticePts(t, 1, 48, 300, 32) // d=300 ≫ k
	c := pipelineCluster()
	tree, info, err := EmbedPipeline(c, pts, pipelineOpts(3))
	if err != nil {
		t.Fatalf("%v (info %+v)", err, info)
	}
	if !info.UsedFJLT {
		t.Fatal("FJLT stage skipped on 300-dimensional input")
	}
	if info.EmbedInfo.Dim > 2*info.FJLTParams.K {
		t.Errorf("embedding ran in dimension %d, expected ≈ k=%d", info.EmbedInfo.Dim, info.FJLTParams.K)
	}
	violations := 0
	pairs := 0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			pairs++
			if tree.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
				violations++
			}
		}
	}
	// Domination is w.h.p. through the FJLT; demand it outright here
	// (a single violation would indicate the rescaling is wrong).
	if violations > 0 {
		t.Errorf("%d/%d pairs violate domination after rescale", violations, pairs)
	}
	if rounds := c.Metrics().Rounds; rounds > 24 {
		t.Errorf("pipeline took %d rounds", rounds)
	}
}

// Low-dimensional inputs must skip the FJLT (it would inflate d).
func TestPipelineSkipsJLWhenLowDim(t *testing.T) {
	pts := latticePts(t, 2, 40, 4, 64)
	c := pipelineCluster()
	tree, info, err := EmbedPipeline(c, pts, pipelineOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	if info.UsedFJLT {
		t.Error("FJLT engaged on 4-dimensional input")
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if tree.Dist(i, j) < vec.Dist(pts[i], pts[j])-1e-9 {
				t.Fatal("domination violated")
			}
		}
	}
}

// O(1) rounds: the count may shift by a few with broadcast-tree depth
// (blob sizes grow logarithmically with n), but must stay under a fixed
// ceiling as n quadruples.
func TestPipelineRoundsBounded(t *testing.T) {
	for _, n := range []int{24, 96} {
		pts := latticePts(t, 4, n, 300, 32)
		c := pipelineCluster()
		_, _, err := EmbedPipeline(c, pts, pipelineOpts(7))
		if err != nil {
			t.Fatal(err)
		}
		if rounds := c.Metrics().Rounds; rounds > 24 {
			t.Errorf("n=%d: pipeline took %d rounds", n, rounds)
		}
	}
}

func TestPipelineBadInputs(t *testing.T) {
	c := pipelineCluster()
	if _, _, err := EmbedPipeline(c, nil, PipelineOptions{}); err == nil {
		t.Error("empty accepted")
	}
	c2 := pipelineCluster()
	if _, _, err := EmbedPipeline(c2, []vec.Point{{}}, PipelineOptions{}); err == nil {
		t.Error("zero-dim accepted")
	}
	c3 := pipelineCluster()
	if _, _, err := EmbedPipeline(c3, latticePts(t, 5, 8, 4, 16), PipelineOptions{Xi: 0.9}); err == nil {
		t.Error("xi=0.9 accepted")
	}
}

// Distortion sanity across the full pipeline: mean tree/original ratio is
// bounded by a generous multiple of the theory bound.
func TestPipelineDistortionSane(t *testing.T) {
	pts := latticePts(t, 6, 40, 200, 64)
	var sum float64
	var cnt int
	for seed := uint64(0); seed < 3; seed++ {
		c := pipelineCluster()
		tree, _, err := EmbedPipeline(c, pts, pipelineOpts(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				sum += tree.Dist(i, j) / vec.Dist(pts[i], pts[j])
				cnt++
			}
		}
	}
	mean := sum / float64(cnt)
	if mean < 1 || mean > 200 {
		t.Errorf("pipeline mean distortion %v out of sane range", mean)
	}
}
