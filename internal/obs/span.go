// Hierarchical spans: wall time, allocation, and model-cost attribution
// for the Theorem-1 pipeline phases. A span tree for a full MPC run looks
// like
//
//	pipeline
//	├─ jl_projection        (Algorithm 3: MPC FJLT)
//	└─ tree_embed           (Algorithm 2)
//	   ├─ grid_construction (lines 1–3: diameter, grid draw, broadcast)
//	   ├─ root_paths        (lines 4–6: per-point paths, sent to key owners)
//	   └─ tree_build        (owner-side edge dedup, driver assembly)
//
// Each span records wall nanoseconds, heap bytes allocated while it was
// open (process-wide cumulative allocation delta — attribution is
// approximate when phases overlap, which the pipeline's phases do not),
// and caller-supplied model metrics such as rounds and comm_words. Those
// model metrics are exact: the pipeline snapshots the cluster meters at
// phase boundaries, so per-phase rounds and comm-words sum to the cluster
// totals.
//
// Every span also carries its identity — a 128-bit trace id, its own
// span id and its parent's — so forests recorded in different processes
// (coordinator and workers, gate and replicas) join into one trace: a
// span continuing a remote TraceContext records the remote span as its
// parent.
//
// Every method is safe on a nil *Span — instrumentation call sites never
// need nil checks — and safe for concurrent use: a live span tree can be
// rendered by the debug server while the pipeline is still extending it.
// Each tree has its own lock, so per-request trees on a busy server never
// contend with each other.
//
// Spans are observational only. Nothing reads a span to make an
// algorithmic decision; the determinism suites run with spans on and off
// and assert bit-identical output.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one node of a phase-attribution tree.
type Span struct {
	name string
	mu   *sync.RWMutex // shared by every span of one tree

	traceID  [16]byte
	spanID   uint64
	parentID uint64 // 0 on a root that continues no remote context

	start      time.Time
	startAlloc uint64

	// Guarded by mu.
	children   []*Span
	wallNs     int64
	allocBytes uint64
	ended      bool
	metrics    map[string]int64
}

// allocSamples recycles the one-sample buffers heapAllocBytes reads
// into, so a read allocates nothing and concurrent reads share no memory.
var allocSamples = sync.Pool{New: func() any {
	s := new([1]metrics.Sample)
	s[0].Name = "/gc/heap/allocs:bytes"
	return s
}}

// heapAllocBytes reads the process's cumulative heap allocation — the
// counter MemStats.TotalAlloc reports — from runtime/metrics, which does
// not stop the world. Small objects are counted when their P's cached
// span is refilled, so the figure is exact over a pipeline phase and
// approximate, to a few KiB, for a span that allocates little.
func heapAllocBytes() uint64 {
	s := allocSamples.Get().(*[1]metrics.Sample)
	metrics.Read(s[:])
	v := s[0].Value.Uint64()
	allocSamples.Put(s)
	return v
}

// newSpan starts a span in the tree guarded by mu.
func newSpan(name string, mu *sync.RWMutex, traceID [16]byte, parentID uint64) *Span {
	return &Span{name: name, mu: mu, traceID: traceID, spanID: NewSpanID(), parentID: parentID,
		start: time.Now(), startAlloc: heapAllocBytes()}
}

// NewSpan starts a root span of a fresh trace.
func NewSpan(name string) *Span {
	return newSpan(name, new(sync.RWMutex), NewTraceID(), 0)
}

// Child starts a new child span in the parent's trace. Nil-safe: a nil
// parent returns nil, so un-instrumented runs thread nil spans through
// the pipeline for free.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.attach(newSpan(name, s.mu, s.traceID, s.spanID))
}

// Continue starts a child span that continues a remote context: it nests
// under s in this process's tree, but takes its trace id from remote and
// records remote's span as its parent. A worker's service span for a
// traced MPW1 frame is one. Nil-safe.
func (s *Span) Continue(name string, remote TraceContext) *Span {
	if s == nil {
		return nil
	}
	return s.attach(newSpan(name, s.mu, remote.TraceID, remote.SpanID))
}

func (s *Span) attach(c *Span) *Span {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Context is the span's identity as a propagation context — what a
// downstream hop continues. A nil span gives the zero, untraced context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.traceID, SpanID: s.spanID, Sampled: true}
}

// End closes the span, freezing its wall time and allocation delta.
// Ending twice keeps the first measurement. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	alloc := heapAllocBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.wallNs = time.Since(s.start).Nanoseconds()
	if alloc > s.startAlloc {
		s.allocBytes = alloc - s.startAlloc
	}
}

// Add accumulates a model metric (rounds, comm_words, …) on the span.
// Nil-safe.
func (s *Span) Add(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metrics == nil {
		s.metrics = make(map[string]int64)
	}
	s.metrics[key] += delta
}

// SpanSnapshot is the exported form of a span tree node — what /trace
// serves as JSON and what Render draws.
type SpanSnapshot struct {
	Name string `json:"name"`
	// TraceID, SpanID and ParentSpan are the span's identity in hex, as
	// in traceparent (32 and 16 digits). ParentSpan is empty on a root
	// that continues no remote context.
	TraceID    string `json:"trace_id"`
	SpanID     string `json:"span_id"`
	ParentSpan string `json:"parent_span,omitempty"`
	// StartUnixNs is the wall-clock start time (UnixNano). It exists so
	// span forests snapshotted in DIFFERENT processes (coordinator +
	// workers) can be merged onto one timeline; within a single process
	// the monotonic WallNs is the trustworthy duration.
	StartUnixNs int64            `json:"start_unix_ns,omitempty"`
	WallNs      int64            `json:"wall_ns"`
	AllocBytes  uint64           `json:"alloc_bytes"`
	Running     bool             `json:"running,omitempty"`
	Metrics     map[string]int64 `json:"metrics,omitempty"`
	Children    []*SpanSnapshot  `json:"children,omitempty"`
}

// Snapshot copies the tree at this instant. Open spans report their wall
// time so far and Running=true. A nil span snapshots to nil.
func (s *Span) Snapshot() *SpanSnapshot {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshotLocked()
}

func (s *Span) snapshotLocked() *SpanSnapshot {
	out := &SpanSnapshot{Name: s.name, TraceID: s.Context().TraceIDString(), SpanID: formatSpanID(s.spanID),
		StartUnixNs: s.start.UnixNano(), WallNs: s.wallNs, AllocBytes: s.allocBytes, Running: !s.ended}
	if s.parentID != 0 {
		out.ParentSpan = formatSpanID(s.parentID)
	}
	if !s.ended {
		out.WallNs = time.Since(s.start).Nanoseconds()
	}
	if len(s.metrics) > 0 {
		out.Metrics = make(map[string]int64, len(s.metrics))
		for k, v := range s.metrics {
			out.Metrics[k] = v
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.snapshotLocked())
	}
	return out
}

// formatSpanID renders a span id as 16 hex digits, the traceparent form.
func formatSpanID(id uint64) string { return fmt.Sprintf("%016x", id) }

// MarshalJSON serializes the span tree snapshot.
func (s *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Snapshot())
}

// SumMetric totals a metric over the snapshot's LEAF spans — the
// attribution identity the pipeline maintains: leaf-phase rounds and
// comm-words sum to the cluster totals.
func (sn *SpanSnapshot) SumMetric(key string) int64 {
	if sn == nil {
		return 0
	}
	if len(sn.Children) == 0 {
		return sn.Metrics[key]
	}
	var total int64
	for _, c := range sn.Children {
		total += c.SumMetric(key)
	}
	return total
}

// formatBytes renders an allocation figure compactly.
func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// Render writes the span tree as a flame-style text table: tree-drawn
// names, a bar proportional to each span's share of the root's wall time,
// then wall/alloc and the model metrics.
func (s *Span) Render(w io.Writer) error {
	sn := s.Snapshot()
	if sn == nil {
		_, err := fmt.Fprintln(w, "(no spans)")
		return err
	}
	type row struct {
		label string
		sn    *SpanSnapshot
	}
	var rows []row
	var walk func(sn *SpanSnapshot, prefix string, last bool, root bool)
	walk = func(sn *SpanSnapshot, prefix string, last, root bool) {
		label := sn.Name
		childPrefix := prefix
		if !root {
			branch := "├─ "
			cont := "│  "
			if last {
				branch, cont = "└─ ", "   "
			}
			label = prefix + branch + sn.Name
			childPrefix = prefix + cont
		}
		rows = append(rows, row{label: label, sn: sn})
		for i, c := range sn.Children {
			walk(c, childPrefix, i == len(sn.Children)-1, false)
		}
	}
	walk(sn, "", true, true)

	width := 0
	for _, r := range rows {
		if n := len([]rune(r.label)); n > width {
			width = n
		}
	}
	rootWall := sn.WallNs
	if rootWall <= 0 {
		rootWall = 1
	}
	const barWidth = 20
	for _, r := range rows {
		frac := float64(r.sn.WallNs) / float64(rootWall)
		if frac > 1 {
			frac = 1
		}
		bar := strings.Repeat("█", int(frac*barWidth+0.5))
		pad := strings.Repeat(" ", width-len([]rune(r.label)))
		state := ""
		if r.sn.Running {
			state = " (running)"
		}
		line := fmt.Sprintf("%s%s  %-*s %5.1f%%  wall %-10v alloc %-8s", r.label, pad, barWidth, bar,
			frac*100, time.Duration(r.sn.WallNs).Round(time.Microsecond), formatBytes(r.sn.AllocBytes))
		keys := make([]string, 0, len(r.sn.Metrics))
		for k := range r.sn.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += fmt.Sprintf(" %s=%d", k, r.sn.Metrics[k])
		}
		if _, err := fmt.Fprintln(w, line+state); err != nil {
			return err
		}
	}
	return nil
}

// RenderString is Render into a string.
func (s *Span) RenderString() string {
	var b strings.Builder
	_ = s.Render(&b)
	return b.String()
}
