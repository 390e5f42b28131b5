// Chrome trace-event export: renders one or more span forests — possibly
// snapshotted in different OS processes — as a trace-event JSON document
// loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// The mapping is deliberately simple:
//
//   - each TraceProcess becomes one "pid", named by a process_name
//     metadata event (coordinator, worker 0, worker 1, …);
//   - each root snapshot within a process becomes one track ("tid"),
//     named by a thread_name metadata event, so a coordinator can show
//     its pipeline phases and its wire-level transport ops side by side;
//   - every span becomes one complete ("X") event whose args carry the
//     span's identity (trace_id, span_id, parent_span — hex, as in
//     traceparent) and model metrics (rounds, comm_words, seq, attempt,
//     …), with nesting inferred by the viewer from time containment.
//
// Timestamps come from SpanSnapshot.StartUnixNs (wall clock), normalized
// to the earliest span in the document so traces start at t=0. Clocks of
// distinct processes on one host agree to well under a millisecond, which
// is enough to eyeball wire time against worker service time; the
// authoritative per-span duration is always the span's own WallNs.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// TraceProcess is one process's span forest in a merged timeline.
type TraceProcess struct {
	// Name labels the pid row in the viewer ("coordinator", "worker 2").
	Name string
	// Roots are the process's span trees, one track each. Nil entries are
	// skipped, so callers can pass scrape results without filtering.
	Roots []*SpanSnapshot
}

// chromeEvent is one trace-event object. Only the fields this exporter
// uses; ts/dur are in microseconds per the trace-event spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the merged span forests as a Chrome trace-event
// JSON document ({"traceEvents": [...], "displayTimeUnit": "ms"}).
// Processes with no spans contribute only their process_name metadata, so
// a dead worker whose span scrape failed still appears — as an empty row,
// which is exactly what it was.
func WriteChromeTrace(w io.Writer, procs []TraceProcess) error {
	// Normalize to the earliest start across every process so the
	// timeline begins at t=0.
	var t0 int64
	for _, p := range procs {
		for _, r := range p.Roots {
			walkSnapshots(r, func(sn *SpanSnapshot) {
				if sn.StartUnixNs > 0 && (t0 == 0 || sn.StartUnixNs < t0) {
					t0 = sn.StartUnixNs
				}
			})
		}
	}

	var events []chromeEvent
	for pid, p := range procs {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": p.Name},
		})
		tid := 0
		for _, root := range p.Roots {
			if root == nil {
				continue
			}
			tid++
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": root.Name},
			})
			walkSnapshots(root, func(sn *SpanSnapshot) {
				events = append(events, spanEvent(sn, pid, tid, t0))
			})
		}
	}

	// Stable order: metadata first, then events by timestamp — viewers
	// don't require it, but diffable artifacts are easier to test.
	sort.SliceStable(events, func(i, j int) bool {
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return events[i].Ts < events[j].Ts
	})

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// spanEvent converts one snapshot node to a complete event.
func spanEvent(sn *SpanSnapshot, pid, tid int, t0 int64) chromeEvent {
	ev := chromeEvent{
		Name: sn.Name, Ph: "X", Pid: pid, Tid: tid,
		Ts:  float64(sn.StartUnixNs-t0) / 1e3,
		Dur: float64(sn.WallNs) / 1e3,
	}
	if sn.StartUnixNs == 0 {
		ev.Ts = 0 // pre-timestamp snapshot (old producer); pin to origin
	}
	args := make(map[string]any, len(sn.Metrics)+5)
	for k, v := range sn.Metrics {
		args[k] = v
	}
	if sn.SpanID != "" { // snapshots from older producers carry no identity
		args["trace_id"], args["span_id"] = sn.TraceID, sn.SpanID
	}
	if sn.ParentSpan != "" {
		args["parent_span"] = sn.ParentSpan
	}
	if sn.AllocBytes > 0 {
		args["alloc_bytes"] = sn.AllocBytes
	}
	if sn.Running {
		args["running"] = true
	}
	if len(args) > 0 {
		ev.Args = args
	}
	return ev
}

// walkSnapshots visits sn and its descendants preorder.
func walkSnapshots(sn *SpanSnapshot, visit func(*SpanSnapshot)) {
	if sn == nil {
		return
	}
	visit(sn)
	for _, c := range sn.Children {
		walkSnapshots(c, visit)
	}
}

// WriteChromeTraceFile is WriteChromeTrace with the usual file-creation
// boilerplate, shared by the -trace-out flags.
func WriteChromeTraceFile(path string, procs []TraceProcess) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, procs); err != nil {
		f.Close()
		return fmt.Errorf("obs: write trace %s: %w", path, err)
	}
	return f.Close()
}
