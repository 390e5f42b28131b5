package stats

import (
	"math"
	"runtime"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// MeasureDistortion must be bit-identical at any GOMAXPROCS: per-pair
// ratios land in slots and every float sum folds serially in pair order,
// so no fan-out width can perturb the statistics.
func TestMeasureDistortionWorkerInvariant(t *testing.T) {
	r := rng.New(61)
	pts := make([]vec.Point, 40)
	for i := range pts {
		pts[i] = make(vec.Point, 6)
		for j := range pts[i] {
			pts[i][j] = float64(1 + r.Intn(256))
		}
	}

	measure := func(procs int) Distortion {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d, err := MeasureDistortion(pts, 5, func(seed uint64) (*hst.Tree, error) {
			tr, _, err := core.Embed(pts, core.Options{Method: core.MethodGrid, Seed: 1000 + seed})
			return tr, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	want, got := measure(1), measure(8)
	for name, pair := range map[string][2]float64{
		"MaxMeanRatio": {want.MaxMeanRatio, got.MaxMeanRatio},
		"MeanRatio":    {want.MeanRatio, got.MeanRatio},
		"MinRatio":     {want.MinRatio, got.MinRatio},
		"P95Ratio":     {want.P95Ratio, got.P95Ratio},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("GOMAXPROCS=8: %s = %v, at 1 %v", name, pair[1], pair[0])
		}
	}
	if got.Trees != want.Trees || got.Pairs != want.Pairs {
		t.Fatalf("GOMAXPROCS=8: counters differ: %+v vs %+v", got, want)
	}
}
