package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tc := TraceContext{SpanID: 0x1234abcd5678ef90, Sampled: true}
	for i := range tc.TraceID {
		tc.TraceID[i] = byte(i + 1)
	}
	got, ok := ParseTraceParent(tc.HeaderValue())
	if !ok {
		t.Fatalf("ParseTraceParent(%q) rejected", tc.HeaderValue())
	}
	if got != tc {
		t.Fatalf("round trip: got %+v want %+v", got, tc)
	}

	tc.Sampled = false
	got, ok = ParseTraceParent(tc.HeaderValue())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
}

func TestTraceParentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-00000000000000000000000000000000-1234567890abcdef-01", // zero trace id
		"00-0102030405060708090a0b0c0d0e0f10-0000000000000000-01", // zero span id
		"01-0102030405060708090a0b0c0d0e0f10-1234567890abcdef-01", // wrong version
		"00-0102030405060708090a0b0c0d0e0f-1234567890abcdef-01",   // short trace id
		"00-0102030405060708090a0b0c0d0e0f10-1234567890abcde-01",  // short span id
		"00-0102030405060708090a0b0c0d0e0fzz-1234567890abcdef-01", // bad hex
		"00-0102030405060708090A0B0C0D0E0F10-1234567890abcdef-01", // uppercase trace id
		"00-0102030405060708090a0b0c0d0e0f10-1234567890ABCDEF-01", // uppercase span id
		"00-0102030405060708090a0b0c0d0e0f10-1234567890abcdef-0A", // uppercase flags
		"00-0102030405060708090a0b0c0d0e0f10-+234567890abcdef-01", // sign is not hex
		"garbage",
		"00-0102030405060708090a0b0c0d0e0f10-1234567890abcdef",
	}
	for _, v := range bad {
		if _, ok := ParseTraceParent(v); ok {
			t.Errorf("ParseTraceParent(%q) accepted", v)
		}
	}
}

// TestSpanIDRoundTrip: fresh span ids are nonzero, use all 64 bits, and
// survive the traceparent round trip a downstream hop parses them from.
func TestSpanIDRoundTrip(t *testing.T) {
	high := false
	for i := 0; i < 100; i++ {
		id := NewSpanID()
		if id == 0 {
			t.Fatal("NewSpanID drew 0")
		}
		high = high || id>>63 != 0
		tc := TraceContext{TraceID: NewTraceID(), SpanID: id, Sampled: true}
		got, ok := ParseTraceParent(tc.HeaderValue())
		if !ok || got != tc {
			t.Fatalf("span id round trip: %x -> %+v ok=%v", id, got, ok)
		}
	}
	if !high {
		t.Fatal("100 span ids never set bit 63: ids are still clamped")
	}
}

func TestSamplerEdgesAndDeterminism(t *testing.T) {
	never := NewSampler(0)
	always := NewSampler(1)
	half := NewSampler(0.5)
	kept := 0
	const n = 4000
	for i := 0; i < n; i++ {
		id := NewTraceID()
		if never.Sample(id) {
			t.Fatal("0-fraction sampler kept a trace")
		}
		if !always.Sample(id) {
			t.Fatal("1-fraction sampler dropped a trace")
		}
		a, b := half.Sample(id), half.Sample(id)
		if a != b {
			t.Fatal("sampler not deterministic for a fixed id")
		}
		if a {
			kept++
		}
	}
	if kept < n/4 || kept > 3*n/4 {
		t.Fatalf("0.5 sampler kept %d of %d", kept, n)
	}
	var nilS *Sampler
	if nilS.Sample(NewTraceID()) {
		t.Fatal("nil sampler sampled")
	}
}

func TestTraceBufferRing(t *testing.T) {
	b := NewTraceBuffer(4)
	for i := 0; i < 10; i++ {
		sp := NewSpan("req")
		sp.Add("seq", int64(i))
		sp.End()
		b.Add(sp)
	}
	snaps := b.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snaps))
	}
	for i, s := range snaps {
		if want := int64(6 + i); s.Metrics["seq"] != want {
			t.Fatalf("snapshot %d has seq %d, want %d", i, s.Metrics["seq"], want)
		}
	}
	if b.Total() != 10 {
		t.Fatalf("Total = %d, want 10", b.Total())
	}
	var nilB *TraceBuffer
	nilB.Add(NewSpan("x"))
	if nilB.Snapshots() != nil || nilB.Total() != 0 {
		t.Fatal("nil buffer not inert")
	}
}

func TestTracerStartRequest(t *testing.T) {
	tr := NewTracer(1, 16)

	// Fresh trace, sampler keeps everything; a fresh root has no parent.
	sp := tr.StartRequest(TraceContext{}, "serve dist")
	tctx := sp.Context()
	if sp == nil || !tctx.Valid() {
		t.Fatalf("fresh sampled request: span=%v tctx=%+v", sp, tctx)
	}
	if sn := sp.Snapshot(); sn.ParentSpan != "" || sn.SpanID != formatSpanID(tctx.SpanID) {
		t.Fatalf("fresh root identity: %+v, context %+v", sn, tctx)
	}
	tr.Finish(sp)
	if got := len(tr.Buffer().Snapshots()); got != 1 {
		t.Fatalf("buffer has %d roots, want 1", got)
	}

	// Propagated sampled parent is continued with a fresh span id that
	// records the parent.
	child := tr.StartRequest(tctx, "serve knn")
	ctctx := child.Context()
	if child == nil {
		t.Fatal("sampled parent not continued")
	}
	if ctctx.TraceID != tctx.TraceID {
		t.Fatal("trace id not preserved across hops")
	}
	if ctctx.SpanID == tctx.SpanID {
		t.Fatal("child reused parent span id")
	}
	if got := child.Snapshot().ParentSpan; got != formatSpanID(tctx.SpanID) {
		t.Fatalf("continued root parent_span = %q, want %016x", got, tctx.SpanID)
	}

	// Propagated unsampled parent stays unsampled even at fraction 1.
	unsampled := tctx
	unsampled.Sampled = false
	if sp2 := tr.StartRequest(unsampled, "serve dist"); sp2 != nil {
		t.Fatal("unsampled propagated request was sampled locally")
	}

	// Fraction 0: fresh requests never sampled.
	if sp3 := NewTracer(0, 16).StartRequest(TraceContext{}, "serve dist"); sp3 != nil {
		t.Fatal("0-fraction tracer sampled a fresh request")
	}

	// Nil tracer is inert.
	var nilT *Tracer
	if sp := nilT.StartRequest(TraceContext{}, "x"); sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	nilT.Finish(NewSpan("x"))
}

// TestContextPlumbing: inside the request wrapper, handlers read the
// request id and the root span from the request context; outside it
// both are empty.
func TestContextPlumbing(t *testing.T) {
	if SpanFromContext(context.Background()) != nil || RequestIDFromContext(context.Background()) != "" {
		t.Fatal("empty context produced request state")
	}
	tr := NewTracer(1, 4)
	q := NewRequests(RequestsConfig{Family: "test", Tracer: tr, MaxBodyBytes: 1 << 10})
	var gotID string
	var gotSpan *Span
	h := q.Wrap("echo", func(w http.ResponseWriter, r *http.Request) {
		gotID = RequestIDFromContext(r.Context())
		gotSpan = SpanFromContext(r.Context())
		gotSpan.Child("decode").End()
	})
	req := httptest.NewRequest(http.MethodGet, "/echo", nil)
	req.Header.Set(RequestIDHeader, "client-7")
	h(httptest.NewRecorder(), req)
	if gotID != "client-7" {
		t.Fatalf("request id in context = %q, want client-7", gotID)
	}
	roots := tr.Buffer().Snapshots()
	if gotSpan == nil || len(roots) != 1 || roots[0].Name != "test echo" || roots[0].SpanID != formatSpanID(gotSpan.Context().SpanID) {
		t.Fatalf("root span in context %v, finished roots %+v", gotSpan, roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Metrics["status"] != http.StatusOK {
		t.Fatalf("root %+v: want one child and status 200", roots[0])
	}
}

func TestRegisterRequestTraces(t *testing.T) {
	tr := NewTracer(1, 8)
	sp := tr.StartRequest(TraceContext{}, "serve dist")
	sp.Child("compute_dist").End()
	tr.Finish(sp)

	mux := http.NewServeMux()
	RegisterRequestTraces(mux, tr.Buffer())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trace/requests", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /trace/requests: %d", rec.Code)
	}
	var doc struct {
		Spans []*SpanSnapshot `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "serve dist" {
		t.Fatalf("spans = %+v", doc.Spans)
	}
	if len(doc.Spans[0].Children) != 1 || doc.Spans[0].Children[0].Name != "compute_dist" {
		t.Fatalf("children = %+v", doc.Spans[0].Children)
	}
}

// FuzzParseTraceParent: the parser never panics, an accepted header is
// Valid, the context re-renders to a header that parses back to it, and
// the re-rendered version, trace id and span id are the accepted bytes
// (W3C allows lowercase hex only, so no other spelling may parse).
func FuzzParseTraceParent(f *testing.F) {
	for _, seed := range []string{
		"00-0102030405060708090a0b0c0d0e0f10-1234567890abcdef-01",
		"00-0102030405060708090a0b0c0d0e0f10-1234567890abcdef-00",
		"00-0102030405060708090a0b0c0d0e0f10-1234567890abcdef-ff",
		" 00-0102030405060708090a0b0c0d0e0f10-1234567890abcdef-01 ",
		"00-0102030405060708090A0B0C0D0E0F10-1234567890ABCDEF-01", // uppercase: rejected
		"00-00000000000000000000000000000000-1234567890abcdef-01",
		"ff-0102030405060708090a0b0c0d0e0f10-1234567890abcdef-01",
		"",
		"00--01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tc, ok := ParseTraceParent(v)
		if !ok {
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as invalid context %+v", v, tc)
		}
		hv := tc.HeaderValue()
		got, ok := ParseTraceParent(hv)
		if !ok || got != tc {
			t.Fatalf("%q: re-rendered %q parses to %+v ok=%v, want %+v", v, hv, got, ok, tc)
		}
		if in := strings.TrimSpace(v); in[:53] != hv[:53] {
			t.Fatalf("accepted %q, which renders as %q", in, hv)
		}
	})
}
