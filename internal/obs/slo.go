// Latency objectives. An Objective wraps an existing latency histogram
// with p50/p99 estimate gauges, a published objective bound, and an SLO
// burn counter, so dashboards and the obscheck -max-p99 gate read tail
// latency straight off /metrics without re-deriving it from buckets.
// The same bound raises a request's access record to Warn (see Wrap).
package obs

import "sync/atomic"

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution by linear interpolation within the cumulative buckets —
// the same estimator Prometheus's histogram_quantile applies, so the
// gauges an Objective publishes agree with what a PromQL dashboard
// would compute from the buckets. Samples landing in the implicit +Inf
// bucket clamp to the last finite bound (the histogram cannot resolve
// beyond it). Returns 0 before the first observation.
func (h *Histogram) Quantile(q float64) float64 {
	d := h.m.hist
	total := d.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	lower := 0.0
	for i, b := range d.bounds {
		c := d.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(b-lower)
		}
		cum += c
		lower = b
	}
	if len(d.bounds) > 0 {
		return d.bounds[len(d.bounds)-1]
	}
	return 0
}

// quantileRefreshEvery is how many observations pass between quantile
// gauge recomputations. Estimating a quantile walks every bucket; doing
// it on a small stride keeps the gauges fresh to within a few requests
// while keeping the per-request cost O(1) amortized.
const quantileRefreshEvery = 32

// Objective is a latency objective attached to one endpoint's
// histogram. It owns four derived series in the histogram's family
// namespace:
//
//	<family>_latency_p50_seconds{endpoint}    estimated median
//	<family>_latency_p99_seconds{endpoint}    estimated 99th percentile
//	<family>_latency_objective_seconds{endpoint}  the configured bound
//	<family>_slo_breaches_total{endpoint}     requests over the bound
//
// Observe feeds the underlying histogram and maintains all four. A nil
// Objective is a no-op, so callers without a registry need no branches.
type Objective struct {
	hist     *Histogram
	bound    float64
	p50, p99 *Gauge
	breaches *Counter
	n        atomic.Uint64
}

// NewObjective attaches an objective to hist (which must already be
// registered in reg). family names the series prefix ("serve", "gate"),
// endpoint labels them, bound is the objective in seconds (<= 0
// disables breach counting but still publishes quantiles). Returns nil
// when reg or hist is nil.
func NewObjective(reg *Registry, family, endpoint string, hist *Histogram, bound float64) *Objective {
	if reg == nil || hist == nil {
		return nil
	}
	o := &Objective{
		hist:  hist,
		bound: bound,
		p50: reg.Gauge(family+"_latency_p50_seconds",
			"Estimated median request latency (bucket interpolation).", "endpoint", endpoint),
		p99: reg.Gauge(family+"_latency_p99_seconds",
			"Estimated p99 request latency (bucket interpolation).", "endpoint", endpoint),
		breaches: reg.Counter(family+"_slo_breaches_total",
			"Requests whose latency exceeded the objective bound.", "endpoint", endpoint),
	}
	obj := reg.Gauge(family+"_latency_objective_seconds",
		"Configured per-request latency objective (0 = none).", "endpoint", endpoint)
	obj.Set(bound)
	return o
}

// Observe records one request latency in seconds: histogram sample,
// breach check, and a periodic quantile gauge refresh. Nil-safe.
func (o *Objective) Observe(seconds float64) {
	if o == nil {
		return
	}
	o.hist.Observe(seconds)
	if o.bound > 0 && seconds > o.bound {
		o.breaches.Inc()
	}
	// Refresh on the first observation and every stride after, so the
	// gauges are live as soon as traffic exists.
	if n := o.n.Add(1); n == 1 || n%quantileRefreshEvery == 0 {
		o.p50.Set(o.hist.Quantile(0.50))
		o.p99.Set(o.hist.Quantile(0.99))
	}
}
