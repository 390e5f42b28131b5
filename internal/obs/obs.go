// Package obs is the repository's observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus-text and JSON exporters, hierarchical spans that
// attribute cost to the Theorem-1 pipeline phases, and a live debug HTTP
// server (http.go). It is stdlib-only by design — the module has zero
// external dependencies and observability must not be the thing that
// changes that.
//
// Determinism contract: everything in this package is OBSERVATIONAL.
// Metrics and spans record what a computation did (rounds, words, wall
// time, allocations); nothing here may ever be read back to steer a
// computation. The algorithmic layers uphold the same contract — a run
// with instrumentation on is bit-identical to a run with it off (the
// determinism suites assert this). Timing and allocation figures vary
// run to run; the model-level counters (rounds, words) do not.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric for the exporters.
type Kind uint8

// Metric kinds, matching the Prometheus type vocabulary.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// metric is one registered series: a family name, optional label pairs,
// and a value cell of the appropriate kind. All value access is atomic so
// hot paths (par shard bodies, cluster rounds) never contend on the
// registry lock.
type metric struct {
	name   string // family name
	help   string
	kind   Kind
	labels [][2]string // ordered key/value pairs; may be empty

	ival atomic.Int64  // counter value
	fval atomic.Uint64 // gauge value (float64 bits)
	hist *histogram
}

// key uniquely identifies a series within a registry.
func (m *metric) key() string { return m.name + m.labelString() }

// labelString renders {k="v",...} or "".
func (m *metric) labelString() string {
	if len(m.labels) == 0 {
		return ""
	}
	s := "{"
	for i, kv := range m.labels {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", kv[0], kv[1])
	}
	return s + "}"
}

// Registry holds an ordered set of metrics. The zero value is not usable;
// construct with New. Registration is idempotent: asking for an existing
// (name, labels) series returns the same cell, so independent layers can
// share counters without coordination.
type Registry struct {
	mu    sync.Mutex
	order []*metric
	byKey map[string]*metric
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// register finds or creates the series. Label pairs are passed as
// alternating key, value strings.
func (r *Registry) register(name, help string, kind Kind, labelPairs ...string) *metric {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs for %q", name))
	}
	labels := make([][2]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		if !metricNameRE.MatchString(labelPairs[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", labelPairs[i], name))
		}
		labels = append(labels, [2]string{labelPairs[i], labelPairs[i+1]})
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byKey[m.key()]; ok {
		if existing.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", m.key(), kind, existing.kind))
		}
		return existing
	}
	r.byKey[m.key()] = m
	r.order = append(r.order, m)
	return m
}

// Counter is a monotonically increasing integer series.
type Counter struct{ m *metric }

// Counter finds or registers a counter. labelPairs alternate key, value.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	return &Counter{m: r.register(name, help, KindCounter, labelPairs...)}
}

// Add increments the counter by n (negative n panics: counters are
// monotone by definition — use a Gauge for values that move both ways).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: negative add %d on counter %s", n, c.m.key()))
	}
	c.m.ival.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.m.ival.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.m.ival.Load() }

// Gauge is an instantaneous value series.
type Gauge struct{ m *metric }

// Gauge finds or registers a gauge.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	return &Gauge{m: r.register(name, help, KindGauge, labelPairs...)}
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.m.fval.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta, which may be negative — the idiom for
// in-flight meters (Add(1) on entry, Add(-1) on exit). CAS-accumulated,
// so concurrent adders never lose updates.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.m.fval.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.m.fval.CompareAndSwap(old, nw) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the idiom
// for peak meters (peak residency, peak total space) under concurrency.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.m.fval.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.m.fval.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.m.fval.Load()) }

// histogram is the value cell of a fixed-bucket histogram.
type histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Histogram is a fixed-bucket distribution series.
type Histogram struct{ m *metric }

// DefaultWordBuckets suit word-count distributions: powers of four from
// 64 to ~16M words.
func DefaultWordBuckets() []float64 {
	b := make([]float64, 0, 10)
	for v := 64.0; v <= 1<<24; v *= 4 {
		b = append(b, v)
	}
	return b
}

// Histogram finds or registers a histogram with the given ascending
// bucket upper bounds (+Inf is implicit). Re-registration ignores the
// bounds argument and returns the existing series.
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	m := r.register(name, help, KindHistogram, labelPairs...)
	r.mu.Lock()
	if m.hist == nil {
		m.hist = &histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Int64, len(bounds))}
	}
	r.mu.Unlock()
	return &Histogram{m: m}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	d := h.m.hist
	for i, b := range d.bounds {
		if v <= b {
			d.counts[i].Add(1)
			break
		}
	}
	d.count.Add(1)
	for {
		old := d.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if d.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.m.hist.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.m.hist.sum.Load()) }

// BucketValue is one cumulative histogram bucket in a snapshot.
type BucketValue struct {
	LE         float64 `json:"le"` // upper bound; +Inf for the last
	Cumulative int64   `json:"cumulative"`
}

// Value is one series in a registry snapshot — the exporters' common
// intermediate form.
type Value struct {
	Name    string            `json:"name"`
	Help    string            `json:"help,omitempty"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`           // counter/gauge value; histogram sum
	Count   int64             `json:"count,omitempty"` // histogram only
	Buckets []BucketValue     `json:"buckets,omitempty"`
}

// NumSeries reports how many series are registered — a cheap liveness
// signal for /healthz (a process that registered its series is past
// startup).
func (r *Registry) NumSeries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// Snapshot returns a point-in-time copy of every series, in registration
// order (families stay contiguous for the Prometheus exporter).
func (r *Registry) Snapshot() []Value {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	// Group by family name, preserving first-seen order, so exporters can
	// emit one HELP/TYPE header per family even when labelled series of a
	// family were registered apart.
	sort.SliceStable(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	out := make([]Value, 0, len(metrics))
	for _, m := range metrics {
		v := Value{Name: m.name, Help: m.help, Kind: m.kind.String()}
		if len(m.labels) > 0 {
			v.Labels = make(map[string]string, len(m.labels))
			for _, kv := range m.labels {
				v.Labels[kv[0]] = kv[1]
			}
		}
		switch m.kind {
		case KindCounter:
			v.Value = float64(m.ival.Load())
		case KindGauge:
			v.Value = math.Float64frombits(m.fval.Load())
		case KindHistogram:
			d := m.hist
			cum := int64(0)
			for i, b := range d.bounds {
				cum += d.counts[i].Load()
				v.Buckets = append(v.Buckets, BucketValue{LE: b, Cumulative: cum})
			}
			v.Buckets = append(v.Buckets, BucketValue{LE: math.Inf(1), Cumulative: d.count.Load()})
			v.Count = d.count.Load()
			v.Value = math.Float64frombits(d.sum.Load())
		}
		out = append(out, v)
	}
	return out
}
