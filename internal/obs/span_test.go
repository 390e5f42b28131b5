package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanHierarchyAndMetrics(t *testing.T) {
	root := NewSpan("pipeline")
	jl := root.Child("jl_projection")
	jl.Add("rounds", 4)
	jl.Add("comm_words", 1000)
	jl.End()
	embed := root.Child("tree_embed")
	for _, phase := range []string{"grid_construction", "root_paths", "tree_build"} {
		c := embed.Child(phase)
		c.Add("rounds", 2)
		c.Add("comm_words", 500)
		c.End()
	}
	embed.Add("rounds", 6)
	embed.End()
	root.End()

	sn := root.Snapshot()
	if len(sn.Children) != 2 || len(sn.Children[1].Children) != 3 {
		t.Fatalf("unexpected tree shape: %+v", sn)
	}
	// Leaf-sum identity: jl (leaf) + three embed leaves.
	if got := sn.SumMetric("rounds"); got != 4+3*2 {
		t.Fatalf("leaf rounds sum = %d, want 10", got)
	}
	if got := sn.SumMetric("comm_words"); got != 1000+3*500 {
		t.Fatalf("leaf comm sum = %d, want 2500", got)
	}
	if jl.Metric("rounds") != 4 {
		t.Fatalf("Metric read = %d, want 4", jl.Metric("rounds"))
	}
	if sn.WallNs <= 0 {
		t.Fatal("ended root has no wall time")
	}
	if sn.Running {
		t.Fatal("ended root still marked running")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	c := s.Child("x") // must not panic, must stay nil
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	c.Add("rounds", 1)
	c.End()
	if c.Metric("rounds") != 0 {
		t.Fatal("nil span holds metrics")
	}
	if c.Snapshot() != nil {
		t.Fatal("nil span snapshots non-nil")
	}
	if got := c.RenderString(); !strings.Contains(got, "no spans") {
		t.Fatalf("nil render = %q", got)
	}
}

func TestSpanRender(t *testing.T) {
	root := NewSpan("pipeline")
	a := root.Child("jl_projection")
	a.Add("rounds", 4)
	a.End()
	b := root.Child("tree_embed")
	b.Child("root_paths").End()
	b.End()
	root.End()

	out := root.RenderString()
	for _, want := range []string{"pipeline", "jl_projection", "tree_embed", "root_paths", "rounds=4", "wall"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "├─") && !strings.Contains(out, "└─") {
		t.Errorf("render has no tree drawing:\n%s", out)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	root := NewSpan("pipeline")
	root.Child("phase").End()
	root.End()
	data, err := root.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var sn SpanSnapshot
	if err := json.Unmarshal(data, &sn); err != nil {
		t.Fatalf("span JSON does not parse: %v\n%s", err, data)
	}
	if sn.Name != "pipeline" || len(sn.Children) != 1 || sn.Children[0].Name != "phase" {
		t.Fatalf("round-trip mismatch: %+v", sn)
	}
}

// A live span tree must be renderable while another goroutine extends it —
// the debug server scrapes /trace mid-run.
func TestSpanConcurrentSnapshot(t *testing.T) {
	root := NewSpan("pipeline")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c := root.Child("phase")
			c.Add("rounds", 1)
			c.End()
		}
		close(stop)
	}()
	for {
		select {
		case <-stop:
			wg.Wait()
			if got := root.Snapshot().SumMetric("rounds"); got != 200 {
				t.Fatalf("final rounds sum = %d, want 200", got)
			}
			return
		default:
			_ = root.Snapshot()
			_ = root.RenderString()
		}
	}
}

func TestSpanDoubleEndKeepsFirst(t *testing.T) {
	s := NewSpan("x")
	s.End()
	first := s.Snapshot().WallNs
	s.End()
	if s.Snapshot().WallNs != first {
		t.Fatal("second End changed the measurement")
	}
}

// TestSpanIdentity: a root draws a fresh trace, a child inherits its
// parent's trace id and names it as parent_span, and Continue takes both
// from the remote context — the three cases every cross-process link in
// the repository is built from.
func TestSpanIdentity(t *testing.T) {
	root := NewSpan("root")
	child := root.Child("child")
	remote := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	cont := root.Continue("served", remote)
	for _, s := range []*Span{cont, child, root} {
		s.End()
	}

	sn := root.Snapshot()
	rc, cc, xc := root.Context(), child.Context(), cont.Context()
	if sn.TraceID != rc.TraceIDString() || sn.SpanID != formatSpanID(rc.SpanID) || sn.ParentSpan != "" {
		t.Fatalf("root identity %q/%q/%q, context %+v", sn.TraceID, sn.SpanID, sn.ParentSpan, rc)
	}
	if len(sn.TraceID) != 32 || len(sn.SpanID) != 16 {
		t.Fatalf("identity not in traceparent hex widths: %q %q", sn.TraceID, sn.SpanID)
	}
	c := sn.Children[0]
	if c.TraceID != sn.TraceID || c.ParentSpan != sn.SpanID || cc.SpanID == rc.SpanID {
		t.Fatalf("child identity %+v under root %q/%q", c, sn.TraceID, sn.SpanID)
	}
	x := sn.Children[1]
	if x.TraceID != remote.TraceIDString() || x.ParentSpan != formatSpanID(remote.SpanID) || xc.TraceID != remote.TraceID {
		t.Fatalf("continued identity %+v, remote %+v", x, remote)
	}
	var nilSpan *Span
	if nilSpan.Context().Valid() || nilSpan.Continue("x", remote) != nil {
		t.Fatal("nil span has identity")
	}
}
