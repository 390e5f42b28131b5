package hst

import (
	"bytes"
	"slices"
	"testing"

	"mpctree/internal/rng"
)

// FuzzReadTree hardens the binary deserializer and the kernels behind
// it: arbitrary input must either parse into a tree that passes
// Validate, or return an error — never panic, never produce a malformed
// tree — and on every tree it accepts KNN and CutAtScale must match
// their oracles bit for bit. Run continuously with
// `go test -run '^$' -fuzz '^FuzzReadTree$' ./internal/hst`; the seed
// corpus (random and full-depth level-uniform trees, plus truncations
// and bit flips) runs in every normal test pass.
func FuzzReadTree(f *testing.F) {
	r := rng.New(1)
	for trial := 0; trial < 8; trial++ {
		tr := randomHST(r, 2+r.Intn(20))
		if trial%2 == 1 {
			tr = fullDepthHST(r, 2+r.Intn(30), 2+r.Intn(4))
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		if len(data) > 10 {
			f.Add(data[:len(data)-7])
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)/2] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("mpctree1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTree(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("ReadTree accepted an invalid tree: %v", verr)
		}
		// Basic queries must not panic on any accepted tree.
		n := tr.NumPoints()
		if n > 1 {
			_ = tr.Dist(0, 1)
		}
		_ = tr.SubtreeCounts()
		_ = tr.MSTCost()
		for i := 0; i < 3 && n > 0; i++ {
			p := (i * 7919) % n
			for _, k := range []int{1, 1 + i*5, n} {
				if got, want := tr.KNN(p, k), oracleKNN(tr, p, k); !slices.Equal(got, want) {
					t.Fatalf("KNN(%d, %d) = %v, oracle %v", p, k, got, want)
				}
			}
		}
		bounds := tr.SubtreeLeafDiameterBound()
		for _, s := range []float64{0, bounds[0] / 3, bounds[len(bounds)/2], bounds[0]} {
			if got, want := tr.CutAtScale(s), oracleCut(tr, s); !slices.Equal(got, want) {
				t.Fatalf("CutAtScale(%v) = %v, oracle %v", s, got, want)
			}
		}
	})
}
