package stats

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/workload"
)

func TestMeanQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 || Quantile(xs, 0.5) != 3 {
		t.Error("Quantile wrong")
	}
	if Mean(nil) != 0 || Quantile(nil, 0.5) != 0 {
		t.Error("edge cases wrong")
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x^2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	if got := LogLogSlope(xs, ys); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", got)
	}
	// y = 3·√x.
	for i, x := range xs {
		ys[i] = 3 * math.Sqrt(x)
	}
	if got := LogLogSlope(xs, ys); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("slope = %v, want 0.5", got)
	}
}

func TestLogLogSlopePanics(t *testing.T) {
	for _, f := range []func(){
		func() { LogLogSlope([]float64{1}, []float64{1}) },
		func() { LogLogSlope([]float64{1, -2}, []float64{1, 2}) },
		func() { LogLogSlope([]float64{2, 2}, []float64{1, 2}) },
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

func TestMeasureDistortion(t *testing.T) {
	pts := workload.UniformLattice(1, 50, 3, 64)
	d, err := MeasureDistortion(pts, 5, func(seed uint64) (*hst.Tree, error) {
		tr, _, err := core.Embed(pts, core.Options{Method: core.MethodHybrid, R: 1, Seed: seed})
		return tr, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Trees != 5 || d.Pairs != 50*49/2 {
		t.Errorf("bookkeeping wrong: %+v", d)
	}
	// Domination: every single ratio ≥ 1.
	if d.MinRatio < 1-1e-9 {
		t.Errorf("MinRatio %v < 1: domination broken", d.MinRatio)
	}
	if d.MaxMeanRatio < d.MeanRatio || d.MaxMeanRatio < d.P95Ratio {
		t.Errorf("ordering violated: %+v", d)
	}
}

func TestMeasureDistortionPropagatesErrors(t *testing.T) {
	pts := workload.UniformLattice(2, 10, 2, 64)
	wantErr := errors.New("boom")
	_, err := MeasureDistortion(pts, 2, func(seed uint64) (*hst.Tree, error) {
		return nil, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, err := MeasureDistortion(pts[:1], 1, nil); err == nil {
		t.Error("single point accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("n", "ratio", "note")
	tb.AddRow(128, 3.14159, "ok")
	tb.AddRow(100000, 0.0000123, "tiny")
	out := tb.String()
	if !strings.Contains(out, "n") || !strings.Contains(out, "3.142") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: header and separator equal length.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("misaligned header/separator:\n%s", out)
	}
}
