package hst

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mpctree/internal/rng"
)

func TestSerializeRoundTrip(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		tr := randomHST(r, 2+r.Intn(60))
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTree(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumNodes() != tr.NumNodes() || back.NumPoints() != tr.NumPoints() {
			t.Fatal("shape changed in round trip")
		}
		n := tr.NumPoints()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Abs(back.Dist(i, j)-tr.Dist(i, j)) > 1e-12 {
					t.Fatalf("metric changed: (%d,%d) %v vs %v", i, j, back.Dist(i, j), tr.Dist(i, j))
				}
			}
		}
	}
}

func TestReadTreeRejectsGarbage(t *testing.T) {
	if _, err := ReadTree(bytes.NewReader([]byte("not a tree at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTree(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	tr := buildSimple(t)
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadTree(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupt a parent pointer to a forward reference.
	data := append([]byte(nil), buf.Bytes()...)
	// Node 1's parent field starts right after magic(8)+2 counts(16)+node0(24).
	for i := 0; i < 8; i++ {
		data[48+i] = 0x7f
	}
	if _, err := ReadTree(bytes.NewReader(data)); err == nil {
		t.Error("corrupt parent accepted")
	}
}

func TestDOT(t *testing.T) {
	tr := buildSimple(t)
	var buf bytes.Buffer
	if err := tr.DOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph hst", "p0", "p2", "->", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// One edge per non-root node.
	if got := strings.Count(out, "->"); got != tr.NumNodes()-1 {
		t.Errorf("%d edges for %d nodes", got, tr.NumNodes())
	}
}

func TestMedoidLeaf(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 20; trial++ {
		tr := randomHST(r, 2+r.Intn(40))
		gotPoint, gotSum := tr.MedoidLeaf()
		// Brute force.
		n := tr.NumPoints()
		bestP, bestS := -1, math.Inf(1)
		for p := 0; p < n; p++ {
			var s float64
			for q := 0; q < n; q++ {
				s += tr.Dist(p, q)
			}
			if s < bestS {
				bestP, bestS = p, s
			}
		}
		if math.Abs(gotSum-bestS) > 1e-9*(1+bestS) {
			t.Fatalf("medoid sum %v != brute force %v (points %d vs %d)", gotSum, bestS, gotPoint, bestP)
		}
	}
}

func TestCutAtScale(t *testing.T) {
	tr := buildSimple(t)
	// Huge scale: one cluster.
	l1 := tr.CutAtScale(1e9)
	if l1[0] != l1[1] || l1[1] != l1[2] {
		t.Errorf("huge scale labels %v", l1)
	}
	// Scale 4 admits node a (bound 4) and b (bound 0): two clusters,
	// p0 with p1, p2 alone.
	l2 := tr.CutAtScale(4)
	if l2[0] != l2[1] || l2[0] == l2[2] {
		t.Errorf("scale-4 labels %v", l2)
	}
	// Zero scale: all singletons.
	l3 := tr.CutAtScale(0)
	if l3[0] == l3[1] || l3[1] == l3[2] || l3[0] == l3[2] {
		t.Errorf("zero scale labels %v", l3)
	}
}

// Cluster structure from CutAtScale must respect the diameter bound in
// the tree metric.
func TestCutAtScaleDiameters(t *testing.T) {
	r := rng.New(91)
	for trial := 0; trial < 10; trial++ {
		tr := randomHST(r, 30)
		maxDiam := 40.0
		labels := tr.CutAtScale(maxDiam)
		n := tr.NumPoints()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if labels[i] == labels[j] && tr.Dist(i, j) > maxDiam+1e-9 {
					t.Fatalf("same cluster but tree distance %v > %v", tr.Dist(i, j), maxDiam)
				}
			}
		}
	}
}
