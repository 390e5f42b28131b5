package vec

import (
	"math"
	"testing"
	"testing/quick"

	"mpctree/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNorm2(t *testing.T) {
	if got := Norm2(Point{1, 2, 3}); got != 14 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	r := rng.New(1)
	gen := func() Point {
		p := make(Point, 4)
		for i := range p {
			p[i] = r.UniformRange(-10, 10)
		}
		return p
	}
	for i := 0; i < 500; i++ {
		a, b, c := gen(), gen(), gen()
		if !almostEq(Dist(a, b), Dist(b, a), 1e-12) {
			t.Fatal("distance not symmetric")
		}
		if Dist(a, c) > Dist(a, b)+Dist(b, c)+1e-9 {
			t.Fatal("triangle inequality violated")
		}
		if Dist(a, a) != 0 {
			t.Fatal("Dist(a,a) != 0")
		}
	}
}

func TestAddScale(t *testing.T) {
	a := Point{1, 2}
	b := Point{3, 5}
	if !Equal(Add(a, b), Point{4, 7}) {
		t.Error("Add wrong")
	}
	if !Equal(Scale(2, a), Point{2, 4}) {
		t.Error("Scale wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Point{1, 2}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}

func TestBucketProjection(t *testing.T) {
	p := Point{1, 2, 3, 4, 5, 6}
	// r=3 buckets of size 2.
	if !Equal(Bucket(p, 0, 3), Point{1, 2}) || !Equal(Bucket(p, 1, 3), Point{3, 4}) || !Equal(Bucket(p, 2, 3), Point{5, 6}) {
		t.Error("Bucket projections wrong")
	}
	// r=1 bucket is the whole point.
	if !Equal(Bucket(p, 0, 1), p) {
		t.Error("single bucket should be identity")
	}
	// r=d buckets are single coordinates.
	for j := range p {
		if !Equal(Bucket(p, j, 6), Point{p[j]}) {
			t.Error("r=d bucket wrong")
		}
	}
}

func TestBucketPanicsWhenNotDivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when r does not divide d")
		}
	}()
	Bucket(Point{1, 2, 3}, 0, 2)
}

// Property (Definition 3 / Section 3): bucketing loses no information —
// concatenating the r bucket projections recovers the point, and squared
// norms add across buckets.
func TestBucketsPartitionNorm(t *testing.T) {
	r := rng.New(2)
	check := func(seed uint32) bool {
		d := 12
		p := make(Point, d)
		for i := range p {
			p[i] = r.UniformRange(-5, 5)
		}
		for _, nb := range []int{1, 2, 3, 4, 6, 12} {
			var total float64
			var cat Point
			for j := 0; j < nb; j++ {
				b := Bucket(p, j, nb)
				total += Norm2(b)
				cat = append(cat, b...)
			}
			if !almostEq(total, Norm2(p), 1e-9) || !Equal(cat, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPadToMultiple(t *testing.T) {
	p := Point{1, 2, 3}
	q := PadToMultiple(p, 2)
	if len(q) != 4 || q[3] != 0 || !Equal(q[:3], p) {
		t.Errorf("PadToMultiple wrong: %v", q)
	}
	// Padding must not change norms or distances.
	a, b := Point{1, 2, 3}, Point{4, 5, 6}
	if !almostEq(Dist(PadToMultiple(a, 2), PadToMultiple(b, 2)), Dist(a, b), 1e-12) {
		t.Error("padding changed distance")
	}
	// Already divisible: unchanged slice.
	r := Point{1, 2}
	if got := PadToMultiple(r, 2); len(got) != 2 {
		t.Error("unnecessary padding")
	}
	// Paper footnote: padding increases d by a factor of at most 2 (for r <= d).
	for d := 1; d <= 16; d++ {
		for r := 1; r <= d; r++ {
			pp := PadToMultiple(make(Point, d), r)
			if len(pp) >= 2*d && len(pp)%r != 0 {
				t.Fatalf("d=%d r=%d padded to %d", d, r, len(pp))
			}
		}
	}
}

func TestBounds(t *testing.T) {
	ps := []Point{{1, 5}, {3, 2}, {-1, 4}}
	b := Bounds(ps)
	if !Equal(b.Lo, Point{-1, 2}) || !Equal(b.Hi, Point{3, 5}) {
		t.Errorf("Bounds = %+v", b)
	}
	if !almostEq(b.Diameter(), 5, 1e-12) {
		t.Errorf("Diameter = %v", b.Diameter())
	}
}

func TestMinMaxPairwise(t *testing.T) {
	ps := []Point{{0, 0}, {3, 4}, {0, 1}}
	if got := MinPairwiseDist(ps); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := MaxPairwiseDist(ps); got != 5 {
		t.Errorf("max = %v", got)
	}
}

func TestDedup(t *testing.T) {
	ps := []Point{{1, 2}, {1, 2}, {3, 4}, {1, 2}}
	got := Dedup(ps)
	if len(got) != 2 || !Equal(got[0], Point{1, 2}) || !Equal(got[1], Point{3, 4}) {
		t.Errorf("Dedup = %v", got)
	}
	// Distinguishes +0 from values that merely print the same.
	if len(Dedup([]Point{{1.0000000001}, {1.0}})) != 2 {
		t.Error("Dedup merged distinct floats")
	}
}
