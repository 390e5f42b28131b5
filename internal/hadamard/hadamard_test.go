package hadamard

import (
	"math"
	"testing"
	"testing/quick"

	"mpctree/internal/mpc"
	"mpctree/internal/rng"
)

func TestIsPow2NextPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 1024} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFWHTSmallKnown(t *testing.T) {
	x := []float64{1, 0, 0, 0}
	FWHT(x)
	for _, v := range x {
		if v != 1 {
			t.Fatalf("FWHT(e0) = %v", x)
		}
	}
	y := []float64{1, 1, 1, 1}
	FWHT(y)
	if y[0] != 4 || y[1] != 0 || y[2] != 0 || y[3] != 0 {
		t.Fatalf("FWHT(ones) = %v", y)
	}
}

func TestFWHTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FWHT(make([]float64, 3))
}

// Property: the normalised transform is an involution and an isometry.
func TestNormalizedInvolutionAndIsometry(t *testing.T) {
	r := rng.New(1)
	check := func(_ uint32) bool {
		d := 1 << (1 + r.Intn(8))
		x := make([]float64, d)
		for i := range x {
			x[i] = r.Normal()
		}
		orig := append([]float64(nil), x...)
		var n0 float64
		for _, v := range x {
			n0 += v * v
		}
		Normalized(x)
		var n1 float64
		for _, v := range x {
			n1 += v * v
		}
		if math.Abs(n1-n0) > 1e-9*(1+n0) {
			return false // not an isometry
		}
		Normalized(x)
		for i := range x {
			if math.Abs(x[i]-orig[i]) > 1e-9 {
				return false // not an involution
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFWHTMatchesDense(t *testing.T) {
	r := rng.New(2)
	for _, d := range []int{2, 4, 8, 16} {
		h := Dense(d)
		x := make([]float64, d)
		for i := range x {
			x[i] = r.UniformRange(-3, 3)
		}
		want := make([]float64, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want[i] += h[i][j] * x[j]
			}
		}
		got := append([]float64(nil), x...)
		Normalized(got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("d=%d: fast %v vs dense %v", d, got, want)
			}
		}
	}
}

func TestDenseOrthonormal(t *testing.T) {
	d := 8
	h := Dense(d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			var dot float64
			for k := 0; k < d; k++ {
				dot += h[i][k] * h[j][k]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("H rows %d,%d not orthonormal: %v", i, j, dot)
			}
		}
	}
}

func TestDistFWHTMatchesSequential(t *testing.T) {
	r := rng.New(3)
	cases := []struct {
		n, d, blockC, machines int
	}{
		{3, 16, 4, 4},
		{5, 64, 8, 4},
		{2, 256, 16, 8},
		{1, 8, 8, 2},  // single block: degenerate column stage
		{4, 32, 2, 3}, // tall layout: R=16 rows
	}
	for _, cse := range cases {
		vecs := make([][]float64, cse.n)
		want := make([][]float64, cse.n)
		for v := range vecs {
			vecs[v] = make([]float64, cse.d)
			for i := range vecs[v] {
				vecs[v][i] = r.UniformRange(-2, 2)
			}
			want[v] = append([]float64(nil), vecs[v]...)
			Normalized(want[v])
		}
		c := mpc.New(mpc.Config{Machines: cse.machines, CapWords: 1 << 18})
		if err := DistributeVectors(c, vecs, cse.d, cse.blockC); err != nil {
			t.Fatal(err)
		}
		if err := DistFWHT(c, cse.d, cse.blockC, 1); err != nil {
			t.Fatalf("%+v: %v", cse, err)
		}
		got, err := CollectVectors(c, cse.n, cse.d, cse.blockC)
		if err != nil {
			t.Fatal(err)
		}
		for v := range got {
			for i := range got[v] {
				if math.Abs(got[v][i]-want[v][i]) > 1e-9 {
					t.Fatalf("%+v: vector %d entry %d: dist %v vs seq %v", cse, v, i, got[v][i], want[v][i])
				}
			}
		}
		// Round count is O(1): exactly 2 communication rounds.
		if rounds := c.Metrics().Rounds; rounds != 2 {
			t.Errorf("%+v: DistFWHT took %d rounds, want 2", cse, rounds)
		}
	}
}

func TestDistFWHTRejectsBadLayout(t *testing.T) {
	c := mpc.New(mpc.Config{Machines: 2, CapWords: 1024})
	if err := DistFWHT(c, 12, 4, 1); err == nil {
		t.Error("non-power-of-two d accepted")
	}
	if err := DistFWHT(c, 16, 32, 1); err == nil {
		t.Error("blockC > d accepted")
	}
	// Column longer than cap must be rejected up front.
	c2 := mpc.New(mpc.Config{Machines: 2, CapWords: 4})
	if err := DistFWHT(c2, 64, 2, 1); err == nil {
		t.Error("column exceeding cap accepted")
	}
}

func TestDistributeVectorsPadsShort(t *testing.T) {
	c := mpc.New(mpc.Config{Machines: 2, CapWords: 4096})
	vecs := [][]float64{{1, 2, 3}} // shorter than d=8
	if err := DistributeVectors(c, vecs, 8, 4); err != nil {
		t.Fatal(err)
	}
	got, err := CollectVectors(c, 1, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 0, 0, 0, 0, 0}
	for i := range want {
		if got[0][i] != want[i] {
			t.Fatalf("padding wrong: %v", got[0])
		}
	}
}

func BenchmarkFWHT1024(b *testing.B) {
	r := rng.New(1)
	x := make([]float64, 1024)
	for i := range x {
		x[i] = r.Normal()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FWHT(x)
	}
}

func BenchmarkDistFWHT(b *testing.B) {
	r := rng.New(1)
	const n, d, blockC = 16, 256, 16
	vecs := make([][]float64, n)
	for v := range vecs {
		vecs[v] = make([]float64, d)
		for i := range vecs[v] {
			vecs[v][i] = r.Normal()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mpc.New(mpc.Config{Machines: 8, CapWords: 1 << 18})
		if err := DistributeVectors(c, vecs, d, blockC); err != nil {
			b.Fatal(err)
		}
		if err := DistFWHT(c, d, blockC, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFWHTRefSize(b *testing.B, n int) {
	r := rng.New(1)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Normal()
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fwhtRef(x)
	}
}

// BenchmarkFWHTLarge measures the butterfly at sizes past L1 and L2.
func BenchmarkFWHTLarge(b *testing.B) {
	b.Run("ref/64k", func(b *testing.B) { benchFWHTRefSize(b, 1<<16) })
	b.Run("ref/1m", func(b *testing.B) { benchFWHTRefSize(b, 1<<20) })
}
