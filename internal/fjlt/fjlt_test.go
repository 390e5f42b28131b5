package fjlt

import (
	"math"
	"testing"

	"mpctree/internal/mpc"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

func randPts(seed uint64, n, d int) []vec.Point {
	r := rng.New(seed)
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Normal()
		}
		pts[i] = p
	}
	return pts
}

func TestNewParams(t *testing.T) {
	p, err := NewParams(1000, 100, Options{Xi: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if p.DPad != 128 {
		t.Errorf("DPad = %d, want 128", p.DPad)
	}
	if p.K < 10 {
		t.Errorf("k = %d suspiciously small", p.K)
	}
	if p.Q <= 0 || p.Q > 1 {
		t.Errorf("q = %v out of (0,1]", p.Q)
	}
	if math.Abs(p.Scale-1/math.Sqrt(float64(p.K))) > 1e-12 {
		t.Errorf("Scale = %v", p.Scale)
	}
	// k shrinks as ξ grows.
	p2, _ := NewParams(1000, 100, Options{Xi: 0.45})
	if p2.K >= p.K {
		t.Errorf("k did not shrink with larger xi: %d vs %d", p2.K, p.K)
	}
	// Errors.
	if _, err := NewParams(0, 10, Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewParams(10, 10, Options{Xi: 0.7}); err == nil {
		t.Error("xi=0.7 accepted")
	}
}

func TestQDensifiesForSmallD(t *testing.T) {
	// d below ln²n ⇒ q = 1 (dense Gaussian projection fallback).
	p, err := NewParams(100000, 4, Options{Xi: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Q != 1 {
		t.Errorf("q = %v, want 1 for tiny d", p.Q)
	}
}

func TestSignAtDeterministicAndBalanced(t *testing.T) {
	pos := 0
	for i := 0; i < 10000; i++ {
		s := SignAt(42, i)
		if s != 1 && s != -1 {
			t.Fatalf("SignAt = %v", s)
		}
		if s != SignAt(42, i) {
			t.Fatal("SignAt not deterministic")
		}
		if s == 1 {
			pos++
		}
	}
	if pos < 4700 || pos > 5300 {
		t.Errorf("sign imbalance: %d/10000 positive", pos)
	}
	if SignAt(1, 5) == SignAt(2, 5) && SignAt(1, 6) == SignAt(2, 6) && SignAt(1, 7) == SignAt(2, 7) &&
		SignAt(1, 8) == SignAt(2, 8) && SignAt(1, 9) == SignAt(2, 9) && SignAt(1, 10) == SignAt(2, 10) &&
		SignAt(1, 11) == SignAt(2, 11) && SignAt(1, 12) == SignAt(2, 12) {
		t.Error("seeds look ignored (8 consecutive agreements)")
	}
}

func TestPEntriesDeterministicAndDisjoint(t *testing.T) {
	p, _ := NewParams(500, 64, Options{Xi: 0.3, Seed: 7})
	a := PEntriesForColBlock(p, 0, 8)
	b := PEntriesForColBlock(p, 0, 8)
	if len(a) != len(b) {
		t.Fatal("PEntries not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PEntries not deterministic")
		}
	}
	for _, e := range a {
		if e.Col < 0 || e.Col >= 8 || e.Row < 0 || e.Row >= p.K {
			t.Fatalf("entry out of block bounds: %+v", e)
		}
	}
	c := PEntriesForColBlock(p, 8, 8)
	for _, e := range c {
		if e.Col < 8 || e.Col >= 16 {
			t.Fatalf("second block entry out of range: %+v", e)
		}
	}
}

// P's nonzero count concentrates around K·DPad·q (Theorem 3's |P| bound).
func TestNNZConcentration(t *testing.T) {
	p, _ := NewParams(2000, 256, Options{Xi: 0.3, Seed: 11})
	nnz := NNZ(p, DefaultBlockC(p.DPad))
	expect := float64(p.K*p.DPad) * p.Q
	if math.Abs(float64(nnz)-expect) > 5*math.Sqrt(expect)+10 {
		t.Errorf("nnz = %d, expected ≈ %v", nnz, expect)
	}
}

// The headline guarantee: pairwise distances preserved within (1±ξ).
func TestSequentialDistortion(t *testing.T) {
	const n, d = 60, 256
	pts := randPts(3, n, d)
	tr, err := New(n, d, Options{Xi: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mapped := tr.ApplyAll(pts)
	if len(mapped[0]) != tr.P.K {
		t.Fatalf("output dimension %d, want %d", len(mapped[0]), tr.P.K)
	}
	if worst := MaxPairwiseDistortion(pts, mapped); worst > 0.5 {
		t.Errorf("max pairwise distortion %v exceeds 0.5 (ξ=0.3 with slack)", worst)
	}
}

// Norm preservation in expectation: E‖φx‖² = ‖x‖² (the k^{-1/2} scaling).
func TestNormPreservationInExpectation(t *testing.T) {
	const d = 128
	x := randPts(9, 1, d)[0]
	n2 := vec.Norm2(x)
	var sum float64
	const trials = 60
	for s := 0; s < trials; s++ {
		p, _ := NewParams(1000, d, Options{Xi: 0.3, Seed: uint64(s)})
		tr := FromParams(p)
		sum += vec.Norm2(tr.Apply(x))
	}
	got := sum / trials
	if math.Abs(got-n2) > 0.15*n2 {
		t.Errorf("E‖φx‖² = %v, want ≈ %v", got, n2)
	}
}

// Sparse vectors are the adversarial case FJLT's preconditioning (HD)
// exists for: a standard sparse JL fails on e_i; FJLT must not.
func TestDistortionOnSparseVectors(t *testing.T) {
	const n, d = 40, 256
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		p[i%d] = 1 // unit basis vectors
		pts[i] = p
	}
	tr, err := New(n, d, Options{Xi: 0.3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	mapped := tr.ApplyAll(pts)
	if worst := MaxPairwiseDistortion(pts, mapped); worst > 0.5 {
		t.Errorf("sparse-vector distortion %v exceeds 0.5", worst)
	}
}

func TestApplyPanicsOnWrongDim(t *testing.T) {
	tr, _ := New(10, 16, Options{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.Apply(make(vec.Point, 5))
}

func TestMPCMatchesSequential(t *testing.T) {
	const n, d = 24, 64
	pts := randPts(21, n, d)
	p, err := NewParams(n, d, Options{Xi: 0.3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	seq := FromParams(p).ApplyAll(pts)

	c := mpc.New(mpc.Config{Machines: 6, CapWords: 1 << 18})
	got, err := ApplyMPC(c, pts, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		for j := range seq[i] {
			if math.Abs(seq[i][j]-got[i][j]) > 1e-9 {
				t.Fatalf("point %d coord %d: mpc %v vs seq %v", i, j, got[i][j], seq[i][j])
			}
		}
	}
}

// Theorem 3: O(1) rounds — the MPC FJLT must take a constant number of
// rounds regardless of n and d (4 with this layout).
func TestMPCConstantRounds(t *testing.T) {
	for _, cse := range []struct{ n, d int }{{8, 32}, {32, 128}, {64, 512}} {
		pts := randPts(5, cse.n, cse.d)
		p, err := NewParams(cse.n, cse.d, Options{Xi: 0.4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		c := mpc.New(mpc.Config{Machines: 8, CapWords: 1 << 20})
		if _, err := ApplyMPC(c, pts, p, 0); err != nil {
			t.Fatal(err)
		}
		if rounds := c.Metrics().Rounds; rounds != 4 {
			t.Errorf("n=%d d=%d: %d rounds, want 4", cse.n, cse.d, rounds)
		}
	}
}

func TestMPCDistortion(t *testing.T) {
	const n, d = 40, 128
	pts := randPts(31, n, d)
	p, err := NewParams(n, d, Options{Xi: 0.3, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 18})
	mapped, err := ApplyMPC(c, pts, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if worst := MaxPairwiseDistortion(pts, mapped); worst > 0.5 {
		t.Errorf("MPC distortion %v exceeds 0.5", worst)
	}
}

func TestMPCRejectsBadInput(t *testing.T) {
	p, _ := NewParams(4, 16, Options{Seed: 1})
	c := mpc.New(mpc.Config{Machines: 2, CapWords: 1 << 16})
	if _, err := ApplyMPC(c, nil, p, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ApplyMPC(c, randPts(1, 4, 8), p, 0); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := ApplyMPC(c, randPts(1, 4, 16), p, 5); err == nil {
		t.Error("non-power-of-two blockC accepted")
	}
}

// Theorem 3 total-space shape: the dominant term beyond the input itself
// is O(ξ⁻²·n·log³n) — with d fixed, peak total space grows near-linearly
// in n, not quadratically.
func TestMPCTotalSpaceNearLinear(t *testing.T) {
	const d = 64
	space := func(n int) int {
		pts := randPts(41, n, d)
		p, err := NewParams(n, d, Options{Xi: 0.4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		c := mpc.New(mpc.Config{Machines: 8, CapWords: 1 << 22})
		if _, err := ApplyMPC(c, pts, p, 0); err != nil {
			t.Fatal(err)
		}
		return c.Metrics().TotalSpace
	}
	s1 := space(32)
	s2 := space(128)
	// 4× the points should cost well under 16× the space (quadratic would
	// be 16×; allow up to 8× for the log factors).
	if float64(s2) > 8*float64(s1) {
		t.Errorf("total space grew superlinearly: %d → %d", s1, s2)
	}
}

func BenchmarkSequentialApply(b *testing.B) {
	const n, d = 100, 1024
	pts := randPts(1, n, d)
	tr, err := New(n, d, Options{Xi: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Apply(pts[i%n])
	}
}

func BenchmarkMPCApply(b *testing.B) {
	const n, d = 32, 256
	pts := randPts(1, n, d)
	p, err := NewParams(n, d, Options{Xi: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mpc.New(mpc.Config{Machines: 8, CapWords: 1 << 20})
		if _, err := ApplyMPC(c, pts, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNewParamsSinglePoint(t *testing.T) {
	p, err := NewParams(1, 32, Options{Xi: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if p.K < 1 {
		t.Errorf("k=%d for n=1", p.K)
	}
}

func TestApplyMPCExplicitBlockC(t *testing.T) {
	const n, d = 10, 64
	pts := randPts(61, n, d)
	p, err := NewParams(n, d, Options{Xi: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 18})
	out, err := ApplyMPC(c, pts, p, 16) // non-default block width
	if err != nil {
		t.Fatal(err)
	}
	// Different blockC ⇒ different P sharding ⇒ a DIFFERENT but equally
	// valid transform; check shape and distortion only.
	if len(out) != n || len(out[0]) != p.K {
		t.Fatal("bad output shape")
	}
	if worst := MaxPairwiseDistortion(pts, out); worst > 0.9 {
		t.Errorf("distortion %v implausible", worst)
	}
}

func TestDimensionOnePoint(t *testing.T) {
	// d=1 pads to dPad=1; the transform must still run.
	pts := []vec.Point{{3}, {9}, {27}}
	tr, err := New(3, 1, Options{Xi: 0.45, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out := tr.ApplyAll(pts)
	if len(out) != 3 {
		t.Fatal("length mismatch")
	}
}
