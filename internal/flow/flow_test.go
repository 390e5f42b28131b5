package flow

import (
	"math"
	"testing"

	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

func TestMinCostFlowSimple(t *testing.T) {
	// s(0) → a(1) → t(2), plus a direct expensive arc.
	g := NewGraph(3)
	g.AddArc(0, 1, 5, 1)
	g.AddArc(1, 2, 5, 1)
	g.AddArc(0, 2, 5, 10)
	flow, cost, err := g.MinCostFlow(0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 5 || cost != 10 {
		t.Errorf("flow=%v cost=%v, want 5, 10", flow, cost)
	}
	// Ask for more: forced onto the expensive arc.
	g2 := NewGraph(3)
	g2.AddArc(0, 1, 5, 1)
	g2.AddArc(1, 2, 5, 1)
	g2.AddArc(0, 2, 5, 10)
	flow2, cost2, _ := g2.MinCostFlow(0, 2, 8)
	if flow2 != 8 || cost2 != 10+30 {
		t.Errorf("flow=%v cost=%v, want 8, 40", flow2, cost2)
	}
}

func TestMinCostFlowRespectsCapacity(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 3, 2)
	flow, cost, err := g.MinCostFlow(0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 3 || cost != 6 {
		t.Errorf("flow=%v cost=%v", flow, cost)
	}
}

func TestMinCostFlowPrefersCheapPath(t *testing.T) {
	// Two disjoint paths, one cheap one dear; half-capacity demand must
	// use only the cheap one.
	g := NewGraph(4)
	g.AddArc(0, 1, 10, 1)
	g.AddArc(1, 3, 10, 1)
	g.AddArc(0, 2, 10, 5)
	g.AddArc(2, 3, 10, 5)
	flow, cost, _ := g.MinCostFlow(0, 3, 10)
	if flow != 10 || cost != 20 {
		t.Errorf("flow=%v cost=%v, want 10, 20", flow, cost)
	}
}

func TestMinCostFlowBadArgs(t *testing.T) {
	g := NewGraph(2)
	if _, _, err := g.MinCostFlow(0, 0, 1); err == nil {
		t.Error("s==t accepted")
	}
	if _, _, err := g.MinCostFlow(-1, 1, 1); err == nil {
		t.Error("bad source accepted")
	}
}

func TestAddArcPanics(t *testing.T) {
	g := NewGraph(2)
	for _, f := range []func(){
		func() { g.AddArc(0, 5, 1, 1) },
		func() { g.AddArc(0, 1, -1, 1) },
		func() { g.AddArc(0, 1, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEMDPointMasses(t *testing.T) {
	// Two unit masses at positions 0 and 10 moving to 3 and 5 on a line:
	// optimal cost |0-3| + |10-5| = 8.
	pos := []float64{0, 10, 3, 5}
	mu := []float64{1, 1, 0, 0}
	nu := []float64{0, 0, 1, 1}
	got, err := EMD(mu, nu, func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-8) > 1e-9 {
		t.Errorf("EMD = %v, want 8", got)
	}
}

func TestEMDIdenticalMeasuresZero(t *testing.T) {
	mu := []float64{0.5, 0.25, 0.25}
	got, err := EMD(mu, mu, func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("EMD(mu,mu) = %v", got)
	}
}

func TestEMDUnequalMassRejected(t *testing.T) {
	if _, err := EMD([]float64{1}, []float64{2}, func(i, j int) float64 { return 0 }); err == nil {
		t.Error("unequal masses accepted")
	}
	if _, err := EMD([]float64{-1, 2}, []float64{1, 0}, func(i, j int) float64 { return 0 }); err == nil {
		t.Error("negative mass accepted")
	}
	if _, err := EMD([]float64{1}, []float64{1, 0}, func(i, j int) float64 { return 0 }); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEMDZeroMass(t *testing.T) {
	got, err := EMD([]float64{0, 0}, []float64{0, 0}, func(i, j int) float64 { return 1 })
	if err != nil || got != 0 {
		t.Errorf("zero-mass EMD = %v, %v", got, err)
	}
}

// EMD against brute-force matching on small unit-mass instances.
func TestEMDMatchesBruteForce(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		const k = 4 // 4 sources, 4 sinks
		pts := make([]vec.Point, 2*k)
		for i := range pts {
			pts[i] = vec.Point{r.UniformRange(0, 10), r.UniformRange(0, 10)}
		}
		mu := make([]float64, 2*k)
		nu := make([]float64, 2*k)
		for i := 0; i < k; i++ {
			mu[i] = 1
			nu[k+i] = 1
		}
		costFn := func(i, j int) float64 { return vec.Dist(pts[i], pts[j]) }
		got, err := EMD(mu, nu, costFn)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over all 4! matchings.
		best := math.Inf(1)
		perm := []int{0, 1, 2, 3}
		var rec func(depth int, used int, cost float64)
		rec = func(depth int, used int, cost float64) {
			if depth == k {
				if cost < best {
					best = cost
				}
				return
			}
			for j := 0; j < k; j++ {
				if used&(1<<j) == 0 {
					rec(depth+1, used|1<<j, cost+costFn(depth, k+j))
				}
			}
		}
		_ = perm
		rec(0, 0, 0)
		if math.Abs(got-best) > 1e-6 {
			t.Fatalf("trial %d: EMD %v != brute force %v", trial, got, best)
		}
	}
}

// Fractional masses: transport must split optimally.
func TestEMDFractionalSplit(t *testing.T) {
	// 1 unit at x=0; sinks 0.5 at x=1 and 0.5 at x=3: cost 0.5·1+0.5·3 = 2.
	pos := []float64{0, 1, 3}
	mu := []float64{1, 0, 0}
	nu := []float64{0, 0.5, 0.5}
	got, err := EMD(mu, nu, func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("EMD = %v, want 2", got)
	}
}

// EMD is a metric on measures when the ground cost is a metric: check
// symmetry and triangle on random instances.
func TestEMDMetricAxioms(t *testing.T) {
	r := rng.New(9)
	const n = 5
	pts := make([]vec.Point, n)
	for i := range pts {
		pts[i] = vec.Point{r.UniformRange(0, 5), r.UniformRange(0, 5)}
	}
	costFn := func(i, j int) float64 { return vec.Dist(pts[i], pts[j]) }
	gen := func() []float64 {
		m := make([]float64, n)
		var s float64
		for i := range m {
			m[i] = r.Float64()
			s += m[i]
		}
		for i := range m {
			m[i] /= s
		}
		return m
	}
	for trial := 0; trial < 10; trial++ {
		a, b, c := gen(), gen(), gen()
		ab, err1 := EMD(a, b, costFn)
		ba, err2 := EMD(b, a, costFn)
		ac, err3 := EMD(a, c, costFn)
		bc, err4 := EMD(b, c, costFn)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			t.Fatal(err1, err2, err3, err4)
		}
		if math.Abs(ab-ba) > 1e-6 {
			t.Fatalf("EMD asymmetric: %v vs %v", ab, ba)
		}
		if ac > ab+bc+1e-6 {
			t.Fatalf("EMD triangle violated: %v > %v + %v", ac, ab, bc)
		}
	}
}

func BenchmarkEMD50(b *testing.B) {
	r := rng.New(1)
	const n = 50
	pts := make([]vec.Point, n)
	mu := make([]float64, n)
	nu := make([]float64, n)
	for i := range pts {
		pts[i] = vec.Point{r.UniformRange(0, 100), r.UniformRange(0, 100)}
		mu[i] = r.Float64()
		nu[i] = mu[i]
	}
	// Shuffle nu so there is work to do while keeping totals equal.
	for i := 0; i < n; i++ {
		j := r.Intn(n)
		nu[i], nu[j] = nu[j], nu[i]
	}
	costFn := func(i, j int) float64 { return vec.Dist(pts[i], pts[j]) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EMD(mu, nu, costFn); err != nil {
			b.Fatal(err)
		}
	}
}
