package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// xs: the smallest value with at least q% of the samples at or below it.
// It sorts a copy, so xs is left as it was. An empty slice gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint of xs, averaging the middle pair for even
// lengths. An empty slice gives NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianOrZero is median, but 0 for an empty sample: the value a
// per-layer metric takes when the workload never reaches that layer.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// quartiles returns q1, median and q3 exactly as Python's
// statistics.quantiles(xs, n=4) does with its default "exclusive"
// method: quartile i sits at position i·(len+1)/4 of the sorted sample,
// interpolated between its neighbours, with the neighbour index clamped
// to [1, len−1] (so small samples extrapolate). It needs at least two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	const n = 4
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3), nil
}

// spread is the interquartile range over the median, (q3−q1)/median:
// the noise measure a bound is checked against.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("spread undefined: median is 0")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkName reports whether s is a valid metric or workload name: a
// letter or digit, then up to 63 letters, digits, '_', '.' or '-'.
func checkName(s string) error {
	if !metricName.MatchString(s) {
		return fmt.Errorf("invalid name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", s)
	}
	return nil
}

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts a latency sample to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
