// Collector publishes audit reports, per-scale level stats included, onto
// an obs.Registry as the quality_* metric family. Like every obs consumer it
// is write-only and nil-safe: a nil *Collector costs one comparison per
// call, and nothing here is ever read back to steer an embedding.
package quality

import (
	"strconv"
	"sync/atomic"

	"mpctree/internal/obs"
)

// DefaultRatioBuckets suit distortion-ratio distributions: domination
// puts everything at ≥ 1, and Theorem-2 means grow like √(d·r)·logΔ —
// powers of two from 1 to 4096 cover both tails.
func DefaultRatioBuckets() []float64 {
	b := make([]float64, 0, 13)
	for v := 1.0; v <= 4096; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Collector owns one labelled set of quality_* series. Construct one per
// audited tree (label "tree"=name in serving) or one unlabelled set for a
// pipeline run.
type Collector struct {
	cfg    Config
	labels []string

	runs       *obs.Counter
	pairsTotal *obs.Counter
	hist       *obs.Histogram
	domViol    *obs.Counter
	boundViol  *obs.Counter
	mean       *obs.Gauge
	max        *obs.Gauge
	min        *obs.Gauge
	reg        *obs.Registry

	last atomic.Pointer[Report]
}

// NewCollector registers the quality_* series on reg (label pairs
// alternate key, value, as in Registry.Counter) and returns the
// collector. Registration is idempotent, so collectors recreated across
// hot reloads share the same cells.
func NewCollector(reg *obs.Registry, cfg Config, labelPairs ...string) *Collector {
	c := &Collector{cfg: cfg, labels: labelPairs, reg: reg}
	c.runs = reg.Counter("quality_audit_runs_total", "Completed quality audits.", labelPairs...)
	c.pairsTotal = reg.Counter("quality_audit_pairs_total", "Point pairs measured across all audits.", labelPairs...)
	c.hist = reg.Histogram("quality_distortion_ratio", "Per-pair distortion ratios dist_T(p,q)/|p-q| observed by the auditor.", DefaultRatioBuckets(), labelPairs...)
	c.domViol = reg.Counter("quality_domination_violations_total", "Sampled pairs violating domination (ratio < 1).", labelPairs...)
	c.boundViol = reg.Counter("quality_bound_violations_total", "Audits whose mean ratio exceeded the Theorem-2 alarm threshold.", labelPairs...)
	c.mean = reg.Gauge("quality_mean_distortion_ratio", "Mean distortion ratio of the latest audit.", labelPairs...)
	c.max = reg.Gauge("quality_max_distortion_ratio", "Max distortion ratio of the latest audit.", labelPairs...)
	c.min = reg.Gauge("quality_min_distortion_ratio", "Min distortion ratio of the latest audit (domination requires >= 1).", labelPairs...)
	return c
}

// Config returns the audit configuration the collector was built with
// (zero Config for a nil collector).
func (c *Collector) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// Last returns the most recent report seen by ObserveAudit (nil before
// the first audit, or on a nil collector).
func (c *Collector) Last() *Report {
	if c == nil {
		return nil
	}
	return c.last.Load()
}

// ObserveAudit publishes one report's series: the run and pair counters,
// every per-pair ratio into the histogram, the violation counters, the
// latest-audit gauges, and the report's per-scale Lemma-1 observables,
// one labelled child per level — separation-event counters,
// pairs-together and diameter-ratio gauges.
func (c *Collector) ObserveAudit(rep *Report) {
	if c == nil || rep == nil {
		return
	}
	c.runs.Inc()
	c.pairsTotal.Add(int64(rep.SampledPairs))
	for _, r := range rep.Ratios {
		c.hist.Observe(r)
	}
	c.domViol.Add(int64(rep.DominationViolations))
	if rep.BoundViolated {
		c.boundViol.Inc()
	}
	c.mean.Set(rep.MeanRatio)
	c.max.Set(rep.MaxRatio)
	c.min.Set(rep.MinRatio)
	for _, st := range rep.Levels {
		lp := append(append([]string(nil), c.labels...), "level", strconv.Itoa(st.Level))
		c.reg.Counter("quality_separation_events_total", "Sampled pairs first separated at this hierarchy level.", lp...).Add(int64(st.Separated))
		c.reg.Gauge("quality_level_pairs_together", "Sampled pairs entering this level un-separated (latest observation).", lp...).Set(float64(st.Together))
		c.reg.Gauge("quality_level_diameter_ratio", "Max same-part pair distance over the Lemma-1 diameter bound at this level (must stay <= 1).", lp...).Set(st.DiamRatio)
	}
	c.last.Store(rep)
}
