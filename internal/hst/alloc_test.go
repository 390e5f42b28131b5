package hst

import (
	"bytes"
	"io"
	"testing"

	"mpctree/internal/rng"
)

// TestQueryAllocCeiling pins the heap objects of loading a serve-shape
// tree (4096 points, ≈32k nodes, three in four of them unary chain
// nodes, like an Algorithm-2 tree), of writing it, and of one call of
// each query kernel on it. Loading reads one record per node into one
// arena and lays every Children list out of one slab; at one object per
// record field and one per Children append the same load made ≈126k
// objects. Writing puts each node's record out of one buffer; a buffer
// per field made three objects per node (≈94k). The kernels
// read state derived at load time: a cut allocates only its labels, a
// medoid nothing.
func TestQueryAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	r := rng.New(1)
	tr := shapedHST(r, 4096, 8, false)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mu := UniformMeasure(tr.NumPoints(), []int{3, 1400, 2900})
	nu := UniformMeasure(tr.NumPoints(), []int{17, 2048, 4000})
	cases := []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"ReadTree", 32, func() {
			if _, err := ReadTree(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}},
		{"WriteTo", 2, func() {
			if _, err := tr.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}},
		{"CutAtScale", 1, func() { tr.CutAtScale(10) }},
		{"MedoidLeaf", 0, func() { tr.MedoidLeaf() }},
		{"KNN", 2, func() { tr.KNN(1234, 8) }},
		{"EMD", 1, func() { tr.EMD(mu, nu) }},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(5, c.run)
		if allocs > c.ceiling {
			t.Errorf("%s allocates %.0f objects per call, ceiling %.0f", c.name, allocs, c.ceiling)
		}
		t.Logf("%s allocs/call = %.0f (ceiling %.0f)", c.name, allocs, c.ceiling)
	}
}
