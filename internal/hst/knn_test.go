package hst

import (
	"math"
	"slices"
	"sort"
	"testing"

	"mpctree/internal/rng"
)

// bruteKNN computes the reference answer by sorting all other points by
// (distance, point index).
func bruteKNN(t *Tree, p, k int) []Neighbor {
	var all []Neighbor
	for q := 0; q < t.NumPoints(); q++ {
		if q == p {
			continue
		}
		all = append(all, Neighbor{Point: q, Dist: t.Dist(p, q)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Point < all[j].Point
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestKNNMatchesBruteForce(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 25; trial++ {
		tr := randomHST(r, 2+r.Intn(50))
		n := tr.NumPoints()
		for _, k := range []int{1, 2, 3, n - 1, n, n + 5} {
			for p := 0; p < n; p++ {
				got := tr.KNN(p, k)
				want := bruteKNN(tr, p, k)
				if len(got) != len(want) {
					t.Fatalf("trial %d n=%d p=%d k=%d: got %d neighbors, want %d",
						trial, n, p, k, len(got), len(want))
				}
				for i := range got {
					if got[i].Point != want[i].Point || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("trial %d p=%d k=%d: neighbor %d = %+v, want %+v",
							trial, p, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	tr := buildSimple(t)
	if got := tr.KNN(0, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := tr.KNN(0, -3); got != nil {
		t.Errorf("k<0 returned %v", got)
	}
	// All neighbors of point 0, in order.
	got := tr.KNN(0, 100)
	if len(got) != tr.NumPoints()-1 {
		t.Fatalf("k>n returned %d neighbors, want %d", len(got), tr.NumPoints()-1)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatalf("results unsorted: %v", got)
		}
	}
	// Out-of-range point panics like Dist does.
	defer func() {
		if recover() == nil {
			t.Error("KNN(-1) did not panic")
		}
	}()
	tr.KNN(-1, 1)
}

// The query kernels must be pure reads: concurrent KNN, cut, medoid and
// EMD queries over one tree race-free (run under -race) with answers
// identical to serial.
func TestKNNConcurrentReads(t *testing.T) {
	r := rng.New(23)
	tr := shapedHST(r, 60, 4, true)
	n := tr.NumPoints()
	scales := []float64{0, 3, 20, 1e9}
	measures := make([][2][]float64, 8)
	for i := range measures {
		measures[i] = [2][]float64{normalise(randomMeasure(r, n, 1+i%4)), normalise(randomMeasure(r, n, 1+i%4))}
	}
	wantKNN := make([][]Neighbor, n)
	for p := 0; p < n; p++ {
		wantKNN[p] = tr.KNN(p, 5)
	}
	wantCut := make([][]int, len(scales))
	for i, s := range scales {
		wantCut[i] = tr.CutAtScale(s)
	}
	wantEMD := make([]float64, len(measures))
	for i, m := range measures {
		wantEMD[i] = tr.EMD(m[0], m[1])
	}
	wantMedoid, wantTotal := tr.MedoidLeaf()
	check := func() error {
		for p := 0; p < n; p++ {
			if !slices.Equal(tr.KNN(p, 5), wantKNN[p]) {
				return errorString("concurrent KNN answer diverged from serial")
			}
		}
		for i, s := range scales {
			if !slices.Equal(tr.CutAtScale(s), wantCut[i]) {
				return errorString("concurrent CutAtScale answer diverged from serial")
			}
		}
		for i, m := range measures {
			if tr.EMD(m[0], m[1]) != wantEMD[i] {
				return errorString("concurrent EMD answer diverged from serial")
			}
		}
		if p, total := tr.MedoidLeaf(); p != wantMedoid || total != wantTotal {
			return errorString("concurrent MedoidLeaf answer diverged from serial")
		}
		return nil
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- check() }()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errorString string

func (e errorString) Error() string { return string(e) }
