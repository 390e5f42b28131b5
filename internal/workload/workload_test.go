package workload

import (
	"math"
	"testing"

	"mpctree/internal/vec"
)

func distinct(pts []vec.Point) bool {
	return len(vec.Dedup(append([]vec.Point(nil), pts...))) == len(pts)
}

func TestUniformLattice(t *testing.T) {
	pts := UniformLattice(1, 200, 4, 64)
	if len(pts) != 200 || !distinct(pts) {
		t.Fatal("not 200 distinct points")
	}
	for _, p := range pts {
		for _, x := range p {
			if x < 1 || x > 64 || x != math.Round(x) {
				t.Fatalf("coordinate %v off lattice", x)
			}
		}
	}
	// Deterministic.
	pts2 := UniformLattice(1, 200, 4, 64)
	for i := range pts {
		if !vec.Equal(pts[i], pts2[i]) {
			t.Fatal("not deterministic")
		}
	}
	// Different seeds differ.
	pts3 := UniformLattice(2, 200, 4, 64)
	same := 0
	for i := range pts {
		if vec.Equal(pts[i], pts3[i]) {
			same++
		}
	}
	if same == len(pts) {
		t.Fatal("seed ignored")
	}
}

func TestUniformLatticePanicsWhenTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	UniformLattice(1, 100, 2, 3) // only 9 lattice points
}

func TestGaussianClusters(t *testing.T) {
	pts := GaussianClusters(3, 150, 3, 4, 2.0, 256)
	if len(pts) != 150 || !distinct(pts) {
		t.Fatal("not 150 distinct points")
	}
	for _, p := range pts {
		for _, x := range p {
			if x < 1 || x > 256 {
				t.Fatalf("coordinate %v out of range", x)
			}
		}
	}
	// Clustered data must have much smaller median nearest-neighbor
	// distance than uniform data of the same size.
	nnMedian := func(ps []vec.Point) float64 {
		var nns []float64
		for i := range ps {
			best := math.Inf(1)
			for j := range ps {
				if i != j {
					if d := vec.Dist(ps[i], ps[j]); d < best {
						best = d
					}
				}
			}
			nns = append(nns, best)
		}
		// crude median
		sum := 0.0
		for _, v := range nns {
			sum += v
		}
		return sum / float64(len(nns))
	}
	uni := UniformLattice(3, 150, 3, 256)
	if nnMedian(pts) >= nnMedian(uni) {
		t.Error("clustered data not denser than uniform")
	}
}

func TestHypercubeCorners(t *testing.T) {
	pts := HypercubeCorners(5, 30, 10, 100)
	if len(pts) != 30 || !distinct(pts) {
		t.Fatal("not 30 distinct corners")
	}
	for _, p := range pts {
		for _, x := range p {
			if x != 1 && x != 100 {
				t.Fatalf("non-corner coordinate %v", x)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for too many corners")
		}
	}()
	HypercubeCorners(1, 100, 3, 10)
}

func TestCircle(t *testing.T) {
	pts := Circle(7, 60, 1000)
	if len(pts) != 60 || !distinct(pts) {
		t.Fatal("not 60 distinct circle points")
	}
	// All points near the circle of radius ~499.
	cx := 500.0
	for _, p := range pts {
		r := math.Hypot(p[0]-cx, p[1]-cx)
		if math.Abs(r-499) > 3 {
			t.Fatalf("point %v at radius %v, want ≈ 499", p, r)
		}
	}
}

func TestSparseBinary(t *testing.T) {
	pts := SparseBinary(11, 50, 64, 3, 1000)
	if len(pts) != 50 || !distinct(pts) {
		t.Fatal("not 50 distinct sparse vectors")
	}
	for _, p := range pts {
		hot := 0
		for _, x := range p {
			switch x {
			case 1000:
				hot++
			case 1:
			default:
				t.Fatalf("unexpected value %v", x)
			}
		}
		if hot != 3 {
			t.Fatalf("sparsity %d, want 3", hot)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("k > d accepted")
		}
	}()
	SparseBinary(1, 5, 3, 4, 10)
}
