package obs

import "testing"

// TestSampledRequestSpanAllocCeiling pins the heap objects of one sampled
// request's span tree, shaped like a gate dist miss: a root continuing a
// propagated context, route/cache_lookup/forward children with metrics,
// the forward's context rendered for the replica hop, and the finish into
// the trace buffer. Spans are cheap enough to record on every sampled
// request only while this stays small; a per-span map, lock or
// measurement allocation creeping back in breaks through the ceiling.
func TestSampledRequestSpanAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	tr := NewTracer(1, 64)
	parent := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	request := func() {
		root := tr.StartRequest(parent, "gate dist")
		rsp := root.Child("route")
		rsp.Add("backends", 2)
		rsp.End()
		root.Child("cache_lookup").End()
		fwd := root.Child("forward http://replica")
		fwd.Add("round", 0)
		_ = fwd.Context().HeaderValue()
		fwd.Add("status", 200)
		fwd.End()
		root.Add("status", 200)
		tr.Finish(root)
	}
	for i := 0; i < 64; i++ { // fill the ring so Finish replaces, not grows
		request()
	}
	allocs := testing.AllocsPerRun(100, request)
	// Measured 19 objects with go1.24: four spans, the tree lock, three
	// metric maps, the root's children slice growing to three, and the
	// rendered traceparent.
	const ceiling = 24
	if allocs > ceiling {
		t.Fatalf("one sampled request span tree allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
	t.Logf("sampled request span tree allocs = %.0f (ceiling %d)", allocs, ceiling)
}
