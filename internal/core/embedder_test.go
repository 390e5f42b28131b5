package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// mergeConfigs are the configurations the Embed ≡ NewEmbedder tests run:
// every method, and hybrid with a fixed and an automatic r.
var mergeConfigs = []Options{
	{Method: MethodGrid, Seed: 42},
	{Method: MethodBall, Seed: 42},
	{Method: MethodHybrid, R: 2, Seed: 42},
	{Method: MethodHybrid, Seed: 42},
}

// Embed and NewEmbedder share one build, so their trees are the same
// bytes for equal options.
func TestEmbedderTreeMatchesEmbed(t *testing.T) {
	pts := latticePts(t, 1, 80, 4, 128)
	for _, opt := range mergeConfigs {
		e, err := NewEmbedder(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := Embed(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(treeBytes(t, e.Tree()), treeBytes(t, tr)) {
			t.Errorf("%v R=%d: NewEmbedder's tree differs from Embed's", opt.Method, opt.R)
		}
	}
}

// TestEmbedInfoPinned pins Info for mergeConfigs to the values Embed
// reported when NewEmbedder still ran its own level loop: the merged
// build draws the same grids at every level.
func TestEmbedInfoPinned(t *testing.T) {
	pts := latticePts(t, 1, 80, 4, 128)
	const top = 246.1097316239242
	want := []Info{
		{Method: MethodGrid, N: 80, Dim: 4, R: 1, Levels: 4, TopScale: top, GridsPerLevel: []int{1, 1, 1, 1}},
		{Method: MethodBall, N: 80, Dim: 4, R: 1, Levels: 4, TopScale: top, GridsPerLevel: []int{143, 236, 269, 101}, GridWords: 4494, MaxGridsCap: 799},
		{Method: MethodHybrid, N: 80, Dim: 4, R: 2, Levels: 4, TopScale: top, GridsPerLevel: []int{33, 32, 45, 28}, GridWords: 552, MaxGridsCap: 83},
		{Method: MethodHybrid, N: 80, Dim: 4, R: 4, Levels: 4, TopScale: top, GridsPerLevel: []int{16, 23, 19, 19}, GridWords: 231, MaxGridsCap: 34},
	}
	for i, opt := range mergeConfigs {
		_, got, err := Embed(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want[i]) {
			t.Errorf("%v R=%d: Info = %+v, want %+v", opt.Method, opt.R, *got, want[i])
		}
	}
}

// Locating an indexed point must land on (or above) its own leaf — and for
// the vast majority of points, exactly on it.
func TestEmbedderLocatesOwnPoints(t *testing.T) {
	pts := latticePts(t, 2, 100, 4, 128)
	e, err := NewEmbedder(pts, Options{Method: MethodHybrid, R: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for i, p := range pts {
		node, _ := e.Locate(p)
		// The located node's subtree must contain point i.
		found := false
		var walk func(v int)
		walk = func(v int) {
			if e.Tree().Nodes[v].Point == i {
				found = true
			}
			for _, c := range e.Tree().Nodes[v].Children {
				walk(c)
			}
		}
		walk(node)
		if !found {
			t.Fatalf("point %d located outside its own subtree (node %d)", i, node)
		}
		if e.Tree().Nodes[node].Point == i {
			exact++
		}
	}
	if exact < len(pts)*9/10 {
		t.Errorf("only %d/%d points located at their own leaf", exact, len(pts))
	}
}

// Refine on an indexed point returns the point itself at distance 0.
func TestEmbedderRefineSelf(t *testing.T) {
	pts := latticePts(t, 3, 60, 4, 128)
	e, err := NewEmbedder(pts, Options{Method: MethodHybrid, R: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		got, d := e.Refine(p)
		if got != i || d != 0 {
			t.Fatalf("Refine(pts[%d]) = (%d, %v)", i, got, d)
		}
	}
}

// Approximate NN quality: for queries near an indexed point, Refine must
// usually return something close — within a distortion-like factor of the
// true nearest neighbor.
func TestEmbedderNearQueries(t *testing.T) {
	pts := latticePts(t, 4, 150, 4, 1024)
	r := rng.New(9)
	okCount, trials := 0, 0
	const perTree = 40
	for seed := uint64(0); seed < 5; seed++ {
		e, err := NewEmbedder(pts, Options{Method: MethodHybrid, R: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < perTree; q++ {
			base := pts[r.Intn(len(pts))]
			query := make(vec.Point, len(base))
			for j := range query {
				query[j] = base[j] + r.UniformRange(-0.4, 0.4)
			}
			_, gotD := e.Refine(query)
			// True nearest.
			trueD := math.Inf(1)
			for _, p := range pts {
				if d := vec.Dist(p, query); d < trueD {
					trueD = d
				}
			}
			trials++
			if gotD <= 64*trueD+1e-9 {
				okCount++
			}
		}
	}
	if okCount < trials*7/10 {
		t.Errorf("near-query NN within 64× of optimal only %d/%d times", okCount, trials)
	}
}

func TestEmbedderGridMethod(t *testing.T) {
	pts := latticePts(t, 5, 60, 3, 128)
	e, err := NewEmbedder(pts, Options{Method: MethodGrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if got, d := e.Refine(p); got != i || d != 0 {
			t.Fatalf("grid-method Refine(pts[%d]) = (%d, %v)", i, got, d)
		}
	}
}

func TestEmbedderBadInputs(t *testing.T) {
	if _, err := NewEmbedder(nil, Options{}); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewEmbedder([]vec.Point{{1, 1}, {1, 1}}, Options{}); err == nil {
		t.Error("duplicates accepted")
	}
	pts := latticePts(t, 6, 10, 4, 32)
	e, err := NewEmbedder(pts, Options{Method: MethodHybrid, R: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong query dimension accepted")
		}
	}()
	e.Locate(vec.Point{1})
}

func TestEmbedderSinglePoint(t *testing.T) {
	e, err := NewEmbedder([]vec.Point{{5, 5}}, Options{Method: MethodHybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := e.NearestCandidate(vec.Point{7, 7}); p != 0 {
		t.Errorf("singleton candidate = %d", p)
	}
}

// Padding path: d=5 with r=2 pads queries too.
func TestEmbedderPaddedQueries(t *testing.T) {
	pts := latticePts(t, 7, 40, 5, 64)
	e, err := NewEmbedder(pts, Options{Method: MethodHybrid, R: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if got, d := e.Refine(p); got != i || d != 0 {
			t.Fatalf("padded Refine(pts[%d]) = (%d, %v)", i, got, d)
		}
	}
}
