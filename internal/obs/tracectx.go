// Trace-context propagation: one TraceContext carries a request's trace
// identity from treegate to treeserve replicas (as a W3C traceparent
// header) and from an MPC coordinator to its workers (as the MPW1 trace
// block), a deterministic head sampler decides once, at the first hop,
// whether a request is traced, and a bounded TraceBuffer retains the
// span forests of completed sampled requests for /trace/requests and the
// merged chrome-trace export.
//
// The HTTP form is the W3C Trace Context header:
//
//	traceparent: 00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>
//
// with flag bit 0 = sampled. The decision is made at the head of the
// request path (the gate, or a replica hit directly) and every
// downstream tier honors it, so one request is either traced end to end
// or not at all — no torn traces. Each edge has one link: the span a
// downstream tier opens for the request records the upstream span named
// in the context as its parent_span.
//
// Tracing obeys the package's write-only contract: spans record what a
// request did, nothing reads them back, and a disabled tracer costs the
// serving hot path exactly one atomic pointer load.
package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Header names. TraceParentHeader follows the W3C Trace Context spec;
// RequestIDHeader is the serving plane's request correlation id.
const (
	TraceParentHeader = "traceparent"
	RequestIDHeader   = "X-Request-ID"
)

// TraceContext is one request's position in a distributed trace: what
// a traceparent header and an MPW1 trace block both carry.
type TraceContext struct {
	TraceID [16]byte // 128-bit id shared by every span of the request
	SpanID  uint64   // the current (parent-for-downstream) span
	Sampled bool     // head-sampling decision, honored by every tier
}

// Valid reports whether the context carries a usable identity: a
// nonzero trace id and a nonzero span id, per the W3C rules.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != 0
}

// TraceIDString renders the trace id as 32 lowercase hex digits — the
// form logs carry for cross-tier correlation.
func (tc TraceContext) TraceIDString() string {
	return fmt.Sprintf("%x", tc.TraceID[:])
}

// HeaderValue renders the context as a traceparent header value.
func (tc TraceContext) HeaderValue() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%x-%016x-%s", tc.TraceID[:], tc.SpanID, flags)
}

// ParseTraceParent parses a traceparent header value. It accepts only
// version 00 with lowercase hex fields, as the W3C Trace Context spec
// requires, and a nonzero trace id and parent id; anything else returns
// ok=false (a malformed header means "start a new trace", never an
// error — tracing must not be able to fail a request).
func ParseTraceParent(v string) (TraceContext, bool) {
	v = strings.TrimSpace(v)
	if len(v) != 55 || v[:3] != "00-" || v[35] != '-' || v[52] != '-' {
		return TraceContext{}, false
	}
	hi, ok1 := parseLowerHex(v[3:19])
	lo, ok2 := parseLowerHex(v[19:35])
	span, ok3 := parseLowerHex(v[36:52])
	flags, ok4 := parseLowerHex(v[53:55])
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return TraceContext{}, false
	}
	tc := TraceContext{SpanID: span, Sampled: flags&1 == 1}
	binary.BigEndian.PutUint64(tc.TraceID[:8], hi)
	binary.BigEndian.PutUint64(tc.TraceID[8:], lo)
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// parseLowerHex decodes up to 16 lowercase hex digits; any other byte
// (uppercase included) fails.
func parseLowerHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// ---- id generation ----

// idState is the process-wide id sequence, seeded once so two processes
// started in the same nanosecond still diverge (pid mixed in). Ids are
// splitmix64 outputs of the sequence: unique within a process, and
// collision-odds across a small fleet are negligible for 64/128 bits.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<40)
}

// splitmix64 is the standard 64-bit finalizer (Steele et al.) — the
// same mixer internal/rng builds on, inlined so obs stays dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewTraceID draws a fresh 128-bit trace id.
func NewTraceID() [16]byte {
	var id [16]byte
	lo := splitmix64(idState.Add(0x9E3779B97F4A7C15))
	hi := splitmix64(idState.Add(0x9E3779B97F4A7C15))
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (8 * i))
		id[8+i] = byte(lo >> (8 * i))
	}
	if id == ([16]byte{}) {
		id[15] = 1
	}
	return id
}

// NewSpanID draws a fresh nonzero span id.
func NewSpanID() uint64 {
	id := splitmix64(idState.Add(0x9E3779B97F4A7C15))
	if id == 0 {
		id = 1
	}
	return id
}

// ---- deterministic head sampling ----

// Sampler decides, deterministically from the trace id alone, whether a
// trace is recorded. Every tier holding the same fraction makes the
// same call for the same trace id, so a sampling decision never has to
// be re-litigated downstream (downstream tiers honor the propagated
// flag anyway; the determinism makes standalone replicas consistent
// too). A nil Sampler never samples.
type Sampler struct {
	threshold uint64 // sample iff hash(traceID) < threshold
	always    bool
}

// NewSampler builds a sampler keeping the given fraction of traces
// (clamped to [0, 1]). 0 keeps nothing, 1 keeps everything — both
// exactly, which is what the bit-identity acceptance tests assert.
func NewSampler(fraction float64) *Sampler {
	if fraction >= 1 {
		return &Sampler{always: true}
	}
	if fraction <= 0 {
		return &Sampler{}
	}
	return &Sampler{threshold: uint64(fraction * float64(1<<63) * 2)}
}

// Sample reports the head-sampling decision for a trace id.
func (s *Sampler) Sample(id [16]byte) bool {
	if s == nil {
		return false
	}
	if s.always {
		return true
	}
	if s.threshold == 0 {
		return false
	}
	var lo, hi uint64
	for i := 0; i < 8; i++ {
		hi |= uint64(id[i]) << (8 * i)
		lo |= uint64(id[8+i]) << (8 * i)
	}
	return splitmix64(lo^splitmix64(hi)) < s.threshold
}

// ---- completed-request retention ----

// TraceBuffer retains the last cap completed sampled request roots —
// what /trace/requests serves and what the merged chrome-trace export
// reads. It is a ring: old requests age out, memory stays bounded no
// matter how long the server runs.
type TraceBuffer struct {
	mu    sync.Mutex
	cap   int
	ring  []*Span
	next  int
	total uint64
}

// NewTraceBuffer builds a buffer holding at most cap roots (cap <= 0
// defaults to 256).
func NewTraceBuffer(cap int) *TraceBuffer {
	if cap <= 0 {
		cap = 256
	}
	return &TraceBuffer{cap: cap, ring: make([]*Span, 0, cap)}
}

// Add retains a completed root span. Nil roots and nil buffers are
// ignored.
func (b *TraceBuffer) Add(root *Span) {
	if b == nil || root == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total++
	if len(b.ring) < b.cap {
		b.ring = append(b.ring, root)
		return
	}
	b.ring[b.next] = root
	b.next = (b.next + 1) % b.cap
}

// Total reports how many roots were ever added (retained or aged out).
func (b *TraceBuffer) Total() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// Snapshots copies the retained roots, oldest first. Nil-safe.
func (b *TraceBuffer) Snapshots() []*SpanSnapshot {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	roots := make([]*Span, 0, len(b.ring))
	roots = append(roots, b.ring[b.next:]...)
	roots = append(roots, b.ring[:b.next]...)
	b.mu.Unlock()
	out := make([]*SpanSnapshot, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.Snapshot())
	}
	return out
}

// ---- the request tracer ----

// Tracer owns a serving tier's request tracing: the head-sampling
// policy plus the buffer of completed request span forests. Servers
// hold it behind an atomic pointer; a nil tracer is tracing disabled at
// the cost of one atomic load per request.
type Tracer struct {
	sampler *Sampler
	buf     *TraceBuffer
}

// NewTracer builds a tracer head-sampling the given fraction of
// requests into a buffer of bufCap completed roots.
func NewTracer(fraction float64, bufCap int) *Tracer {
	return &Tracer{sampler: NewSampler(fraction), buf: NewTraceBuffer(bufCap)}
}

// Buffer returns the completed-request buffer (for /trace/requests and
// timeline exports).
func (t *Tracer) Buffer() *TraceBuffer {
	if t == nil {
		return nil
	}
	return t.buf
}

// StartRequest opens the root span for one inbound request. A valid
// parent context is continued: the root takes its trace id and records
// its span as parent_span, and its sampled flag is final (unsampled
// propagated requests stay unsampled regardless of the local policy).
// Otherwise a fresh trace id is drawn and the local sampler decides.
// Unsampled requests return a nil span — all span calls downstream are
// nil-safe no-ops.
func (t *Tracer) StartRequest(parent TraceContext, name string) *Span {
	if t == nil {
		return nil
	}
	if parent.Valid() {
		if !parent.Sampled {
			return nil
		}
		return newSpan(name, new(sync.RWMutex), parent.TraceID, parent.SpanID)
	}
	traceID := NewTraceID()
	if !t.sampler.Sample(traceID) {
		return nil
	}
	return newSpan(name, new(sync.RWMutex), traceID, 0)
}

// Finish closes a request root and retains it. Nil-safe on both.
func (t *Tracer) Finish(root *Span) {
	if t == nil || root == nil {
		return
	}
	root.End()
	t.buf.Add(root)
}

// requestTraces is the /trace/requests document.
type requestTraces struct {
	Spans []*SpanSnapshot `json:"spans"`
}

// RegisterRequestTraces mounts GET /trace/requests on mux: the
// buffer's completed sampled request forests as {"spans": [...]}, the
// feed FetchRequestTraces reads for the merged timeline exports.
func RegisterRequestTraces(mux *http.ServeMux, buf *TraceBuffer) {
	mux.HandleFunc("/trace/requests", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		doc := requestTraces{Spans: buf.Snapshots()}
		if doc.Spans == nil {
			doc.Spans = []*SpanSnapshot{}
		}
		_ = json.NewEncoder(w).Encode(doc)
	})
}

// FetchRequestTraces reads the forests the process at base (a URL such
// as "http://127.0.0.1:4102") serves at /trace/requests, oldest first:
// the rows a merged timeline shows for a replica or a worker.
func FetchRequestTraces(client *http.Client, base string) ([]*SpanSnapshot, error) {
	url := strings.TrimSuffix(base, "/") + "/trace/requests"
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: GET %s: %s", url, resp.Status)
	}
	var doc requestTraces
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: GET %s: %w", url, err)
	}
	return doc.Spans, nil
}
