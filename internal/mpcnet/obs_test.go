package mpcnet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/mpc"
	"mpctree/internal/obs"
)

// TestTracedFrameRoundTrip checks the flagTrace wire extension: the
// context survives encode/decode, the payload handed to handlers is
// unchanged, and — the compatibility contract — untraced frames are
// byte-identical to the pre-trace format.
func TestTracedFrameRoundTrip(t *testing.T) {
	payload := []byte("records go here")
	f := Frame{Op: OpAppend, Seq: 42, Machine: 3, Payload: payload,
		Trace: obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}}

	buf := AppendFrame(nil, f)
	got, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("traced frame rejected: %v", err)
	}
	if got.Trace != f.Trace {
		t.Fatalf("trace context mangled: %+v, want %+v", got.Trace, f.Trace)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("payload mangled by trace block: %q", got.Payload)
	}
	if got.Op != f.Op || got.Seq != f.Seq || got.Machine != f.Machine {
		t.Fatalf("header mangled: %+v", got)
	}

	// Untraced frames must stay byte-identical to the old format: flags
	// byte zero, no trace block.
	plain := Frame{Op: OpAppend, Seq: 42, Machine: 3, Payload: payload}
	old := AppendFrame(nil, plain)
	if old[5] != 0 {
		t.Fatalf("untraced frame has nonzero flags byte %#x", old[5])
	}
	if len(old) != headerLen+len(payload)+trailerLen {
		t.Fatalf("untraced frame length %d, want %d", len(old), headerLen+len(payload)+trailerLen)
	}
	if len(buf) != len(old)+traceLen {
		t.Fatalf("traced frame length %d, want untraced+%d", len(buf), traceLen)
	}

	// An unknown flag bit is still a loud wire violation (what an old
	// reader does with a traced frame, and a new reader with flags from
	// the future) — the retired bit 0 of the old 17-byte block included.
	// The CRC is recomputed so only the flag check can object.
	for _, flag := range []byte{0x01, 0x04, 0x80} {
		bad := AppendFrame(nil, plain)
		bad[5] = flag
		reseal(bad)
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrWire) {
			t.Fatalf("flag %#x accepted: %v", flag, err)
		}
	}

	// A traced frame whose payload region is shorter than the trace block
	// is a wire violation, not a silent misparse.
	short := AppendFrame(nil, Frame{Op: OpPing, Seq: 0})
	short[5] = flagTrace
	reseal(short)
	if _, err := ReadFrame(bytes.NewReader(short)); !errors.Is(err, ErrWire) {
		t.Fatalf("short trace block accepted: %v", err)
	}

	// So is a trace block naming no trace: a zero context cannot be
	// re-encoded as traced, so it cannot have been sent as one.
	zero := AppendFrame(nil, plain)
	zero = append(zero[:headerLen], append(make([]byte, traceLen), payload...)...)
	zero[5] = flagTrace
	binary.LittleEndian.PutUint32(zero[20:24], uint32(traceLen+len(payload)))
	zero = append(zero, 0, 0, 0, 0)
	reseal(zero)
	if _, err := ReadFrame(bytes.NewReader(zero)); !errors.Is(err, ErrWire) {
		t.Fatalf("zero trace block accepted: %v", err)
	}
}

// reseal recomputes an encoded frame's CRC after a test edits its bytes.
func reseal(frame []byte) {
	body := frame[:len(frame)-trailerLen]
	binary.LittleEndian.PutUint32(frame[len(frame)-trailerLen:], crc32.ChecksumIEEE(body))
}

// serviceSpanLinks checks the one link per coordinator→worker edge:
// every worker service span's parent_span is the span_id of a wire
// attempt span of the same trace. It returns how many service spans link
// to an attempt after the first (a retried op that reached a worker).
func serviceSpanLinks(t *testing.T, wireRoot *obs.Span, workers []*Worker) (services, retried int) {
	t.Helper()
	type attempt struct {
		trace string
		n     int64
	}
	attempts := map[string]attempt{}
	for _, sp := range wireRoot.Snapshot().Children {
		attempts[sp.SpanID] = attempt{sp.TraceID, sp.Metrics["attempt"]}
	}
	for i, w := range workers {
		for _, sp := range w.Traces().Snapshots() {
			a, ok := attempts[sp.ParentSpan]
			if !ok || a.trace != sp.TraceID {
				t.Fatalf("worker %d service span %q seq %d: parent %q (trace %q) is no wire attempt",
					i, sp.Name, sp.Metrics["seq"], sp.ParentSpan, sp.TraceID)
			}
			services++
			if a.n > 0 {
				retried++
			}
		}
	}
	return services, retried
}

// TestServiceSpansLinkToRetriedAttempts: an op whose first attempt dies
// on a torn connection is served by its retry, and the worker's service
// span names that retry — not the op or its first attempt — as parent.
func TestServiceSpansLinkToRetriedAttempts(t *testing.T) {
	workers, addrs := startWorkers(t, 1)
	tr, err := Dial(Config{Addrs: addrs, Machines: 1, Retry: fastRetry(12)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()
	wireRoot := obs.NewSpan("mpcnet_client")
	tr.EnableTracing(wireRoot)

	recs := []mpc.Record{{Key: "k", Ints: []int64{1}}}
	if err := tr.Append(0, recs); err != nil {
		t.Fatal(err)
	}
	tr.conns[0].Close() // the next op's first attempt fails before the worker sees it
	if err := tr.Append(0, recs); err != nil {
		t.Fatalf("append across reconnect: %v", err)
	}
	services, retried := serviceSpanLinks(t, wireRoot, workers)
	if services != 2 || retried != 1 {
		t.Fatalf("service spans = %d (want 2), linked to retries = %d (want 1)", services, retried)
	}
}

// TestWorkerRetainsLastTracedOps sends more traced ops than a worker's
// ring holds. The worker keeps only the last traceBuf service spans, as
// a replica keeps its last sampled requests, and each retained root
// continues the coordinator's trace with an attempt span as parent_span.
func TestWorkerRetainsLastTracedOps(t *testing.T) {
	const ops = traceBuf + 88
	workers, addrs := startWorkers(t, 1)
	tr, err := Dial(Config{Addrs: addrs, Machines: 1, Retry: fastRetry(4)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()
	wireRoot := obs.NewSpan("mpcnet_client")
	tr.EnableTracing(wireRoot)
	for i := 0; i < ops; i++ {
		if _, err := tr.Words(0); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	tr.EnableTracing(nil)
	if _, err := tr.Words(0); err != nil { // an untraced op records nothing
		t.Fatal(err)
	}

	buf := workers[0].Traces()
	roots := buf.Snapshots()
	if len(roots) != traceBuf || buf.Total() != ops {
		t.Fatalf("worker retains %d of %d service spans, want the last %d of %d", len(roots), buf.Total(), traceBuf, ops)
	}
	services, _ := serviceSpanLinks(t, wireRoot, workers)
	if services != traceBuf {
		t.Fatalf("%d retained service spans link to wire attempts, want %d", services, traceBuf)
	}
	trace := wireRoot.Context().TraceIDString()
	for i, r := range roots {
		if want := int64(ops - traceBuf + i + 1); r.TraceID != trace || r.Metrics["seq"] != want || len(r.Children) != 0 {
			t.Fatalf("retained root %d = %s seq %d in trace %s, want seq %d in %s", i, r.Name, r.Metrics["seq"], r.TraceID, want, trace)
		}
	}
}

// sumFamily totals a counter family over all its label sets.
func sumFamily(reg *obs.Registry, name string) int64 {
	var total int64
	for _, v := range reg.Snapshot() {
		if v.Name == name {
			total += int64(v.Value)
		}
	}
	return total
}

// TestInstrumentedTCPPipelineBitIdentical is the determinism half of the
// tentpole: the full pipeline over tcp with EVERYTHING attached — frame
// tracing, coordinator wire spans, transport metrics, worker metrics and
// service spans — produces a tree byte-identical to the bare simulator,
// and the phase-attribution leaf identity still holds on the pipeline
// root (wire spans live under their own root and must not break it).
func TestInstrumentedTCPPipelineBitIdentical(t *testing.T) {
	pts := testPoints(48, 6, 7)
	popt := core.PipelineOptions{Seed: 11}
	cfg := mpc.Config{Machines: 8, CapWords: 1 << 20}

	simCluster := mpc.New(cfg)
	simTree := treeBytes(t, simCluster, pts, popt)

	workers, addrs := startWorkers(t, 3)
	wreg := obs.New()
	for _, w := range workers {
		w.Instrument(wreg)
	}
	tr, err := Dial(Config{Addrs: addrs, Machines: cfg.Machines, Retry: fastRetry(2)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()
	reg := obs.New()
	tr.Instrument(reg)
	wireRoot := obs.NewSpan("mpcnet_client")
	tr.EnableTracing(wireRoot)

	tcpCluster := mpc.NewWithTransport(cfg, tr)
	tcpCluster.Instrument(reg)
	pipeRoot := obs.NewSpan("pipeline")
	ipopt := popt
	ipopt.Span = pipeRoot
	tcpTree := treeBytes(t, tcpCluster, pts, ipopt)
	pipeRoot.End()
	wireRoot.End()

	if !bytes.Equal(simTree, tcpTree) {
		t.Fatal("fully instrumented tcp run's tree differs from bare simulator run")
	}
	if sm, tm := simCluster.Metrics(), tcpCluster.Metrics(); sm != tm {
		t.Fatalf("metrics differ: sim %+v, tcp %+v", sm, tm)
	}

	// SumMetric leaf identity on the tcp backend: leaf phase spans still
	// sum to the cluster totals, because wire spans are NOT pipeline
	// children.
	m := tcpCluster.Metrics()
	sn := pipeRoot.Snapshot()
	if got := sn.SumMetric("rounds"); got != int64(m.Rounds) {
		t.Errorf("span leaf-sum rounds = %d, cluster says %d\n%s", got, m.Rounds, pipeRoot.RenderString())
	}
	if got := sn.SumMetric("comm_words"); got != int64(m.CommWords) {
		t.Errorf("span leaf-sum comm_words = %d, cluster says %d\n%s", got, m.CommWords, pipeRoot.RenderString())
	}

	// The coordinator saw every op it completed as a wire span, and the
	// workers opened a service span per applied traced op.
	st := tr.Stats()
	wsn := wireRoot.Snapshot()
	if len(wsn.Children) != st.Ops {
		t.Errorf("wire spans = %d, transport completed %d ops", len(wsn.Children), st.Ops)
	}
	if ops := sumFamily(reg, "mpcnet_ops_total"); ops != int64(st.Ops) {
		t.Errorf("mpcnet_ops_total summed over op kinds = %d, Stats.Ops = %d", ops, st.Ops)
	}
	// Every service span links to a wire attempt. Dedup replays answer
	// without a new service span, so worker spans can undercount wire ops
	// but never exceed them.
	workerSpans, _ := serviceSpanLinks(t, wireRoot, workers)
	if workerSpans == 0 || workerSpans > st.Ops {
		t.Errorf("worker service spans = %d, want in [1, %d]", workerSpans, st.Ops)
	}
	if c := reg.Counter("mpcnet_ops_total", "", "op", "append").Value(); c == 0 {
		t.Error("mpcnet_ops_total{op=append} = 0 after a pipeline run")
	}
	if c := wreg.Counter("mpcworker_ops_total", "", "op", "append").Value(); c == 0 {
		t.Error("mpcworker_ops_total{op=append} = 0 after a pipeline run")
	}
}

// TestWireSpansAccountForRetriedOps kills a worker mid-pipeline and
// checks the acceptance-criteria accounting: the wire span forest holds
// one successful span per completed op and one failed span per failed
// attempt — retried and redialed ops included, nothing dropped — and
// every worker service span, the dead worker's included, links to one of
// those attempts.
func TestWireSpansAccountForRetriedOps(t *testing.T) {
	pts := testPoints(48, 6, 7)
	popt := core.PipelineOptions{Seed: 11, Resilient: true}
	cfg := mpc.Config{Machines: 8, CapWords: 1 << 20}

	simTree := treeBytes(t, mpc.New(cfg), pts, popt)

	workers, addrs := startWorkers(t, 3)
	tr, err := Dial(Config{Addrs: addrs, Machines: cfg.Machines, Retry: fastRetry(3)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()
	reg := obs.New()
	tr.Instrument(reg)
	wireRoot := obs.NewSpan("mpcnet_client")
	tr.EnableTracing(wireRoot)
	workers[1].SetDieAfter(30)

	tcpCluster := mpc.NewWithTransport(cfg, tr)
	tcpTree := treeBytes(t, tcpCluster, pts, popt)
	wireRoot.End()

	if !bytes.Equal(simTree, tcpTree) {
		t.Fatal("recovered tree differs from fault-free simulator tree")
	}
	st := tr.Stats()
	if st.DeadWorkers != 1 || st.Retries == 0 {
		t.Fatalf("drill did not exercise retries: %+v", st)
	}

	var ok, failed int
	for _, sp := range wireRoot.Snapshot().Children {
		if sp.Metrics["failed"] > 0 {
			failed++
		} else {
			ok++
		}
	}
	if ok != st.Ops {
		t.Errorf("successful wire spans = %d, Stats.Ops = %d", ok, st.Ops)
	}
	if errs := sumFamily(reg, "mpcnet_op_errors_total"); int64(failed) != errs {
		t.Errorf("failed wire spans = %d, mpcnet_op_errors_total summed over op kinds = %d", failed, errs)
	}
	if failed == 0 {
		t.Error("no failed wire spans despite retries — retried attempts unaccounted")
	}
	if services, _ := serviceSpanLinks(t, wireRoot, workers); services == 0 {
		t.Error("no worker service spans recorded")
	}
	if reg.Counter("mpcnet_dead_workers_total", "").Value() != 1 {
		t.Errorf("mpcnet_dead_workers_total = %d, want 1",
			reg.Counter("mpcnet_dead_workers_total", "").Value())
	}
}

// TestWorkerSinkCounters drives raw frames at an instrumented worker and
// checks each counter fires on its exact trigger: dedup replay, stale
// refusal, session epoch, residency tracking.
func TestWorkerSinkCounters(t *testing.T) {
	workers, addrs := startWorkers(t, 1)
	w := workers[0]
	reg := obs.New()
	w.Instrument(reg)

	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	xchg := func(f Frame) Frame {
		t.Helper()
		if err := WriteFrame(conn, f); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return resp
	}

	payload := mpc.EncodeRecords([]mpc.Record{{Key: "k", Ints: []int64{1, 2, 3}}})
	xchg(Frame{Op: OpAppend, Seq: 5, Machine: 0, Payload: payload})
	xchg(Frame{Op: OpAppend, Seq: 5, Machine: 0, Payload: payload}) // dedup replay
	xchg(Frame{Op: OpAppend, Seq: 2, Machine: 0, Payload: payload}) // stale
	if got := reg.Counter("mpcworker_dedup_hits_total", "").Value(); got != 1 {
		t.Errorf("dedup_hits = %d, want 1", got)
	}
	if got := reg.Counter("mpcworker_stale_refused_total", "").Value(); got != 1 {
		t.Errorf("stale_refused = %d, want 1", got)
	}
	if got := int(reg.Gauge("mpcworker_resident_words", "").Value()); got != w.Words() {
		t.Errorf("resident_words gauge = %d, Words() = %d", got, w.Words())
	}
	if got := int(reg.Gauge("mpcworker_peak_resident_words", "").Value()); got != w.Words() {
		t.Errorf("peak gauge = %d, want %d", got, w.Words())
	}

	xchg(Frame{Op: OpReset, Seq: 6, Machine: -1})
	if got := reg.Counter("mpcworker_session_epochs_total", "").Value(); got != 1 {
		t.Errorf("session_epochs = %d, want 1", got)
	}
	if got := int(reg.Gauge("mpcworker_resident_words", "").Value()); got != 0 {
		t.Errorf("resident_words after reset = %d, want 0", got)
	}
	if got := int(reg.Gauge("mpcworker_peak_resident_words", "").Value()); got == 0 {
		t.Error("peak gauge reset to 0 — peaks must survive epochs")
	}
	if got := reg.Counter("mpcworker_ops_total", "", "op", "append").Value(); got != 1 {
		t.Errorf("ops_total{op=append} = %d, want 1 (dedup and stale must not count)", got)
	}
	if reg.Counter("mpcworker_request_bytes_total", "").Value() == 0 ||
		reg.Counter("mpcworker_response_bytes_total", "").Value() == 0 {
		t.Error("byte counters did not move")
	}
}

// TestConcurrentTracedStreamsSnapshotWellFormed is the satellite
// concurrency check: several coordinator streams run traced ops at once
// (one worker each — the seq protocol is single-coordinator per worker)
// while every span forest is snapshotted live from another goroutine.
// Each worker's ring takes new service spans while the streams run, so
// this exercises concurrent Start/Finish/Snapshots interleaving; the
// snapshots must stay well-formed and the final merged
// timeline must be valid, Perfetto-shaped JSON accounting for every
// applied op.
func TestConcurrentTracedStreamsSnapshotWellFormed(t *testing.T) {
	const streams, opsPer = 3, 25
	workers, addrs := startWorkers(t, streams)
	for _, w := range workers {
		w.Instrument(obs.New())
	}

	roots := make([]*obs.Span, streams)
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		roots[s] = obs.NewSpan(fmt.Sprintf("client_%d", s))
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tr, err := Dial(Config{Addrs: addrs[s : s+1], Machines: 1, Retry: fastRetry(uint64(s))})
			if err != nil {
				errs <- err
				return
			}
			defer tr.Close()
			tr.EnableTracing(roots[s])
			recs := []mpc.Record{{Key: fmt.Sprintf("s%d", s), Ints: []int64{int64(s)}}}
			for i := 0; i < opsPer; i++ {
				if err := tr.Append(0, recs); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}

	// Snapshot every live forest while the streams run; each snapshot
	// must marshal and never hold a child with an empty name.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snapshotting := true; snapshotting; {
		select {
		case <-done:
			snapshotting = false
		default:
			for _, w := range workers {
				roots := w.Traces().Snapshots()
				if _, err := json.Marshal(roots); err != nil {
					t.Fatalf("live snapshot does not marshal: %v", err)
				}
				for _, c := range roots {
					if c.Name == "" {
						t.Fatal("live snapshot holds an unnamed span")
					}
				}
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Fatalf("stream failed: %v", err)
	}

	// Every applied op must have exactly one worker service span; the
	// store length is the ground truth for applied appends.
	var applied int
	procs := make([]obs.TraceProcess, 0, 2*streams)
	for i, w := range workers {
		n := len(w.Store(0))
		if n != opsPer {
			t.Fatalf("worker %d applied %d appends, want %d", i, n, opsPer)
		}
		applied += n
		roots := w.Traces().Snapshots()
		if len(roots) != n {
			t.Fatalf("worker %d service spans = %d, applied ops = %d", i, len(roots), n)
		}
		procs = append(procs, obs.TraceProcess{Name: fmt.Sprintf("worker %d", i), Roots: roots})
	}

	// Merge all processes into one timeline and re-parse it.
	for s, r := range roots {
		r.End()
		procs = append(procs, obs.TraceProcess{Name: fmt.Sprintf("coordinator %d", s), Roots: []*obs.SpanSnapshot{r.Snapshot()}})
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, procs); err != nil {
		t.Fatalf("write timeline: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	// One service span per applied op plus one wire span per coordinator
	// attempt, all roots included.
	if complete < 2*applied {
		t.Fatalf("timeline holds %d complete events, want >= %d", complete, 2*applied)
	}
}
