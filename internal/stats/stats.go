// Package stats measures embeddings the way the paper's theorems are
// stated: expected distortion is, per point pair, the mean over
// independent trees of dist_T(p,q)/‖p−q‖, and the embedding's expected
// distortion is the maximum of that mean over pairs. The package also
// provides the regression and table-formatting helpers the experiment
// harness (cmd/mpcbench) prints its rows with.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpctree/internal/hst"
	"mpctree/internal/quality"
	"mpctree/internal/vec"
)

// Distortion summarises the quality of a set of trees over one point set.
type Distortion struct {
	Trees        int     // trees sampled
	Pairs        int     // point pairs measured
	MaxMeanRatio float64 // max over pairs of mean_T dist_T/dist — the paper's expected distortion
	MeanRatio    float64 // grand mean of ratios
	MinRatio     float64 // min single-tree ratio (must be ≥ 1: domination)
	P95Ratio     float64 // 95th percentile of per-pair mean ratios
}

// MeasureDistortion evaluates the trees produced by build (called once per
// seed 0..trees-1, serially) against the Euclidean metric of pts. Each
// tree's per-pair ratios are those of a quality.Audit over every pair,
// zero-distance pairs skipped, and they fold serially in that audit's pair
// order, so the result is bit-identical at any width and a one-tree
// measurement agrees with the audit by construction. build returning an
// error aborts.
func MeasureDistortion(pts []vec.Point, trees int, build func(seed uint64) (*hst.Tree, error)) (Distortion, error) {
	if len(pts) < 2 || trees < 1 {
		return Distortion{}, fmt.Errorf("stats: need ≥ 2 points and ≥ 1 tree")
	}
	var sums []float64
	minRatio := math.Inf(1)
	var grand float64
	for s := 0; s < trees; s++ {
		t, err := build(uint64(s))
		if err != nil {
			return Distortion{}, err
		}
		rep, err := quality.Audit(t, pts, quality.Config{MaxPairs: -1})
		if err != nil {
			return Distortion{}, err
		}
		if sums == nil {
			sums = make([]float64, len(rep.Ratios))
		}
		for k, ratio := range rep.Ratios {
			sums[k] += ratio
			grand += ratio
		}
		if rep.MinRatio < minRatio {
			minRatio = rep.MinRatio
		}
	}
	means := make([]float64, len(sums))
	var worst float64
	for k := range sums {
		means[k] = sums[k] / float64(trees)
		if means[k] > worst {
			worst = means[k]
		}
	}
	sort.Float64s(means)
	p95 := means[int(0.95*float64(len(means)-1))]
	return Distortion{
		Trees:        trees,
		Pairs:        len(sums),
		MaxMeanRatio: worst,
		MeanRatio:    grand / float64(trees*len(sums)),
		MinRatio:     minRatio,
		P95Ratio:     p95,
	}, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by nearest rank.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	idx := int(q * float64(len(ys)-1))
	return ys[idx]
}

// LogLogSlope fits the least-squares slope of log(y) against log(x) —
// the growth-exponent estimate used to compare measured scaling against
// the theorems' rates. All inputs must be positive.
func LogLogSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LogLogSlope needs ≥ 2 matched samples")
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: LogLogSlope requires positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	mx, my := Mean(lx), Mean(ly)
	var num, den float64
	for i := range lx {
		num += (lx[i] - mx) * (ly[i] - my)
		den += (lx[i] - mx) * (lx[i] - mx)
	}
	if den == 0 {
		panic("stats: LogLogSlope with constant x")
	}
	return num / den
}

// Table accumulates rows and renders them with aligned columns — the
// experiment harness's output format.
type Table struct {
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
