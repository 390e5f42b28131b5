package hadamard

import (
	"math"
	"testing"

	"mpctree/internal/rng"
)

// FuzzFWHT cross-checks the in-place butterfly against the explicit dense
// Hadamard multiply and the involution identity FWHT(FWHT(x)) = d·x, on
// random power-of-two sizes, and checks that Normalized is an isometric
// involution.
func FuzzFWHT(f *testing.F) {
	f.Add(uint64(1), uint(3))
	f.Add(uint64(42), uint(0))
	f.Add(uint64(7), uint(6))
	f.Fuzz(func(t *testing.T, seed uint64, logD uint) {
		d := 1 << (logD % 9) // d ∈ {1, 2, ..., 256}
		r := rng.New(seed)
		x := make([]float64, d)
		for i := range x {
			x[i] = r.Normal()
		}

		// Reference: dense multiply. Dense(d) is the normalised matrix
		// H/√d, so scale back up for the unnormalised butterfly.
		H := Dense(d)
		scale := math.Sqrt(float64(d))
		want := make([]float64, d)
		for i := 0; i < d; i++ {
			var s float64
			for j := 0; j < d; j++ {
				s += H[i][j] * x[j]
			}
			want[i] = s * scale
		}

		got := append([]float64(nil), x...)
		FWHT(got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("d=%d: FWHT[%d] = %v, dense says %v", d, i, got[i], want[i])
			}
		}

		// Involution: applying the unnormalized transform twice scales by d.
		twice := append([]float64(nil), got...)
		FWHT(twice)
		for i := range twice {
			if math.Abs(twice[i]-float64(d)*x[i]) > 1e-9*float64(d)*(1+math.Abs(x[i])) {
				t.Fatalf("d=%d: FWHT∘FWHT[%d] = %v, want %v", d, i, twice[i], float64(d)*x[i])
			}
		}

		// Normalized is an isometry and a self-inverse.
		norm := append([]float64(nil), x...)
		Normalized(norm)
		var n0, n1 float64
		for i := range x {
			n0 += x[i] * x[i]
			n1 += norm[i] * norm[i]
		}
		if math.Abs(n1-n0) > 1e-9*(1+n0) {
			t.Fatalf("d=%d: Normalized not an isometry: ‖x‖²=%v → %v", d, n0, n1)
		}
		Normalized(norm)
		for i := range x {
			if math.Abs(norm[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
				t.Fatalf("d=%d: Normalized∘Normalized[%d] = %v, want %v", d, i, norm[i], x[i])
			}
		}
	})
}
