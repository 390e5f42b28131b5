package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"mpctree/internal/obs"
)

// postTraced posts body with optional traceparent/request-id headers,
// returning status, response headers, and raw body bytes.
func postTraced(t *testing.T, url string, body []byte, hdrs map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestTracedRequestSpanShape: a propagated sampled request yields one
// root span named after the endpoint with decode/registry_snapshot/
// compute/encode children, continuing the caller's trace with the
// caller's span as parent_span.
func TestTracedRequestSpanShape(t *testing.T) {
	tracer := obs.NewTracer(0, 64) // 0: only propagated traces sampled
	srv, _, _, _ := newTestServer(t, Options{Tracer: tracer})

	parent := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	body, _ := json.Marshal(DistRequest{Tree: "t", Pairs: [][2]int{{0, 1}, {2, 3}}})
	status, _, _ := postTraced(t, srv.URL+"/v1/dist", body,
		map[string]string{obs.TraceParentHeader: parent.HeaderValue()})
	if status != http.StatusOK {
		t.Fatalf("dist: %d", status)
	}

	roots := tracer.Buffer().Snapshots()
	if len(roots) != 1 {
		t.Fatalf("buffer has %d roots, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "serve dist" || root.Running {
		t.Fatalf("root = %q running=%v", root.Name, root.Running)
	}
	if want := fmt.Sprintf("%016x", parent.SpanID); root.ParentSpan != want {
		t.Fatalf("parent_span = %q, want %q", root.ParentSpan, want)
	}
	if root.TraceID != parent.TraceIDString() || root.SpanID == "" || root.SpanID == root.ParentSpan {
		t.Fatalf("root identity %q/%q does not continue trace %q", root.TraceID, root.SpanID, parent.TraceIDString())
	}
	if root.Metrics["status"] != http.StatusOK {
		t.Fatalf("status metric = %d", root.Metrics["status"])
	}
	want := map[string]bool{"decode": false, "registry_snapshot": false, "compute_dist": false, "encode": false}
	for _, c := range root.Children {
		if _, expected := want[c.Name]; !expected {
			t.Fatalf("unexpected child %q", c.Name)
		}
		want[c.Name] = true
		if c.Running {
			t.Fatalf("child %q still running", c.Name)
		}
		if c.TraceID != root.TraceID || c.ParentSpan != root.SpanID {
			t.Fatalf("child %q identity %q/%q, root %q/%q", c.Name, c.TraceID, c.ParentSpan, root.TraceID, root.SpanID)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("missing child span %q", name)
		}
	}
	for _, c := range root.Children {
		if c.Name == "compute_dist" && c.Metrics["pairs"] != 2 {
			t.Fatalf("compute_dist pairs = %d, want 2", c.Metrics["pairs"])
		}
	}

	// An unsampled propagated request records nothing.
	parent.Sampled = false
	status, _, _ = postTraced(t, srv.URL+"/v1/dist", body,
		map[string]string{obs.TraceParentHeader: parent.HeaderValue()})
	if status != http.StatusOK {
		t.Fatalf("unsampled dist: %d", status)
	}
	if got := len(tracer.Buffer().Snapshots()); got != 1 {
		t.Fatalf("unsampled request recorded a root (buffer=%d)", got)
	}
}

// TestLocalHeadSampling: with no propagated context the replica's own
// sampler decides — fraction 1 records every request, fraction 0 none.
func TestLocalHeadSampling(t *testing.T) {
	always := obs.NewTracer(1, 64)
	srv, _, _, _ := newTestServer(t, Options{Tracer: always})
	body, _ := json.Marshal(MedoidRequest{Tree: "t"})
	for i := 0; i < 3; i++ {
		status, _, _ := postTraced(t, srv.URL+"/v1/medoid", body, nil)
		if status != http.StatusOK {
			t.Fatalf("medoid: %d", status)
		}
	}
	roots := always.Buffer().Snapshots()
	if len(roots) != 3 {
		t.Fatalf("recorded %d roots, want 3", len(roots))
	}
	for _, root := range roots {
		if root.Name != "serve medoid" || root.ParentSpan != "" || root.SpanID == "" {
			t.Fatalf("root %q span_id=%q parent_span=%q", root.Name, root.SpanID, root.ParentSpan)
		}
	}
}

// TestTracingByteIdentity: the identical query stream against an
// untraced server, a 0%-sampled server, and a 100%-sampled server
// produces byte-identical response bodies — tracing is write-only.
func TestTracingByteIdentity(t *testing.T) {
	variants := []Options{
		{},
		{Tracer: obs.NewTracer(0, 64)},
		{Tracer: obs.NewTracer(1, 64), SLOTarget: time.Nanosecond,
			Obs: obs.New()}, // SLO burn + metering on: still write-only
	}
	queries := [][2]string{
		{"/v1/dist", `{"tree":"t","pairs":[[0,1],[5,9],[0,1]]}`},
		{"/v1/knn", `{"tree":"t","point":3,"k":4}`},
		{"/v1/cut", `{"tree":"t","scale":64}`},
		{"/v1/emd", `{"tree":"t","mu":"0:1","nu":"5:1"}`},
		{"/v1/medoid", `{"tree":"t"}`},
		{"/v1/dist", `{"tree":"t","pairs":[[2,7]]}`},
		{"/v1/dist", `{"tree":"missing","pairs":[[0,1]]}`}, // error path too
	}
	var streams [][]string
	for _, opts := range variants {
		srv, _, _, _ := newTestServer(t, opts)
		var out []string
		for _, q := range queries {
			status, _, body := postTraced(t, srv.URL+q[0], []byte(q[1]), nil)
			out = append(out, fmt.Sprintf("%d|%s", status, body))
		}
		streams = append(streams, out)
	}
	for v := 1; v < len(streams); v++ {
		for i := range queries {
			if streams[0][i] != streams[v][i] {
				t.Fatalf("variant %d diverges on %s %s:\nuntraced: %q\ntraced:   %q",
					v, queries[i][0], queries[i][1], streams[0][i], streams[v][i])
			}
		}
	}
}
