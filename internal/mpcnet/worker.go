// Worker: the remote half of the TCP record plane. A worker is a record
// store server — it holds the resident records of whichever logical
// machines the coordinator routes to it and answers Read/Write/Append/
// Words ops. All computation stays on the coordinator (RoundFunc closures
// cannot cross a process boundary), so the worker's whole job is to be
// the durable — or, in fault drills, deliberately mortal — home of the
// data plane.
//
// Idempotency: the worker tracks the highest sequenced op it has applied
// and caches that op's response. A retried frame (same seq) gets the
// cached response back without re-applying — an Append delivered twice
// lands once. A frame with a smaller seq than the high-water mark is a
// stale replay and is refused.
package mpcnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"mpctree/internal/mpc"
	"mpctree/internal/obs"
)

// Worker serves machine stores over TCP. Safe for the sequential-
// connection pattern the coordinator uses (one live connection, redialed
// after failures); concurrent connections are serialized per op.
type Worker struct {
	mu     sync.Mutex
	stores map[int32][]mpc.Record

	// Incremental word accounting mirrors stores so the residency gauge
	// never needs an O(total) sweep on the op path.
	machineWords map[int32]int
	totalWords   int

	lastSeq  uint64
	lastResp Frame
	haveResp bool

	sink   *workerSink // nil when not instrumented
	tracer *obs.Tracer // keeps the last traceBuf traced ops' service spans

	ops      int // sequenced ops processed (the die-after trigger counts these)
	dieAfter int // kill self after this many ops; 0 disables
	// KillProcess selects the death mode when dieAfter trips: true sends
	// SIGKILL to the own process (cmd/mpcworker — a real crash, no
	// deferred cleanup runs); false closes the listener and connection
	// (in-process tests — as dead as a goroutine can get).
	KillProcess bool

	lnMu sync.Mutex
	ln   net.Listener

	// Logf, when set, receives one line per lifecycle event (connection
	// accepted, death trip). Op-level logging would swamp real runs.
	Logf func(format string, args ...any)
}

// traceBuf is the number of traced ops whose service spans a worker
// retains, as treeserve and treegate retain their last sampled requests.
const traceBuf = 512

// NewWorker returns an empty worker.
func NewWorker() *Worker {
	return &Worker{stores: make(map[int32][]mpc.Record), machineWords: make(map[int32]int),
		// Fraction 0: a worker never starts a trace of its own; it only
		// continues the ones traced frames carry.
		tracer: obs.NewTracer(0, traceBuf)}
}

// Instrument attaches a metrics registry: per-op service-time histograms,
// dedup/session counters, byte counters, and the resident-words gauges
// appear as mpcworker_* series. Call before serving; observational only.
func (w *Worker) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.mu.Lock()
	w.sink = newWorkerSink(reg)
	w.mu.Unlock()
}

// Traces returns the buffer of the worker's last traceBuf service
// spans, one root per traced op, each continuing the coordinator's
// context (its trace id, the attempt span as parent_span). Untraced
// frames record nothing. mpcworker serves it at /trace/requests.
func (w *Worker) Traces() *obs.TraceBuffer { return w.tracer.Buffer() }

// SetDieAfter arms the crash trigger: the worker dies upon processing its
// n-th sequenced op, BEFORE sending the response — the coordinator
// observes a mid-op connection loss, the worst-timed failure the
// protocol must survive. n ≤ 0 disarms.
func (w *Worker) SetDieAfter(n int) {
	w.mu.Lock()
	w.dieAfter = n
	w.mu.Unlock()
}

// Serve accepts connections on ln until the listener closes. Each
// connection is handled on its own goroutine; op handling is serialized
// by the worker's lock.
func (w *Worker) Serve(ln net.Listener) error {
	w.lnMu.Lock()
	w.ln = ln
	w.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if w.Logf != nil {
			w.Logf("mpcworker: accepted %s", conn.RemoteAddr())
		}
		go w.serveConn(conn)
	}
}

func (w *Worker) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			// Torn or closed connection: the coordinator redials and
			// retries under the original seq; nothing to clean up.
			return
		}
		if w.sink != nil {
			w.sink.reqBytes.Add(int64(frameWireLen(f)))
		}
		resp := w.handle(conn, f)
		if w.sink != nil {
			w.sink.respBytes.Add(int64(frameWireLen(resp)))
		}
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

// handle applies one op and returns its response. Dedup and the die-after
// trigger both live here, under the lock.
func (w *Worker) handle(conn net.Conn, f Frame) Frame {
	w.mu.Lock()
	defer w.mu.Unlock()

	// Unsequenced ops: no dedup, no death trigger.
	if f.Seq == 0 {
		switch f.Op {
		case OpHello, OpPing:
			return Frame{Op: RespOK, Seq: 0, Machine: f.Machine}
		}
		return errFrame(f, "unsequenced %s op", f.Op)
	}

	switch {
	case f.Seq == w.lastSeq && w.haveResp:
		// Duplicate of the op just applied: replay the cached response.
		if w.sink != nil {
			w.sink.dedupHits.Inc()
		}
		return w.lastResp
	case f.Seq <= w.lastSeq && f.Op != OpReset:
		// OpReset is exempt: it begins a new session epoch, so a fresh
		// coordinator's low seqs must not look stale next to the
		// high-water mark its predecessor left behind.
		if w.sink != nil {
			w.sink.staleRefused.Inc()
		}
		return errFrame(f, "stale seq %d (high-water %d)", f.Seq, w.lastSeq)
	}

	w.ops++
	if w.dieAfter > 0 && w.ops >= w.dieAfter {
		w.die(conn)
		// In-process death: the connection is gone, the response is
		// never sent. Return value is written to a closed conn and lost.
		return Frame{Op: RespErr, Seq: f.Seq, Machine: f.Machine}
	}

	// A service span per TRACED frame, continuing the coordinator attempt
	// span named by the frame's trace context (nil for an untraced one).
	// Timing wraps apply() only: the delta between this span and the
	// coordinator's wire span is the network plus framing, which is the
	// comparison the merged timeline exists to show.
	span := w.tracer.StartRequest(f.Trace, f.Op.String())
	span.Add("seq", int64(f.Seq))
	span.Add("machine", int64(f.Machine))
	span.Add("req_bytes", int64(len(f.Payload)))
	start := time.Now()
	resp := w.apply(f)
	if w.sink != nil {
		w.sink.observeOp(f.Op, time.Since(start).Seconds())
		w.sink.setResident(w.totalWords)
	}
	w.tracer.Finish(span)

	w.lastSeq = f.Seq
	w.lastResp = resp
	w.haveResp = true
	return resp
}

// apply executes a sequenced op against the stores.
func (w *Worker) apply(f Frame) Frame {
	switch f.Op {
	case OpRead:
		return Frame{Op: RespData, Seq: f.Seq, Machine: f.Machine,
			Payload: mpc.EncodeRecords(w.stores[f.Machine])}
	case OpWrite:
		recs, err := mpc.DecodeRecords(f.Payload)
		if err != nil {
			return errFrame(f, "write payload: %v", err)
		}
		words := mpc.WordsOf(recs)
		w.totalWords += words - w.machineWords[f.Machine]
		if len(recs) == 0 {
			delete(w.stores, f.Machine)
			delete(w.machineWords, f.Machine)
		} else {
			w.stores[f.Machine] = recs
			w.machineWords[f.Machine] = words
		}
		return Frame{Op: RespOK, Seq: f.Seq, Machine: f.Machine}
	case OpAppend:
		recs, err := mpc.DecodeRecords(f.Payload)
		if err != nil {
			return errFrame(f, "append payload: %v", err)
		}
		if len(recs) > 0 {
			w.stores[f.Machine] = append(w.stores[f.Machine], recs...)
			words := mpc.WordsOf(recs)
			w.machineWords[f.Machine] += words
			w.totalWords += words
		}
		return Frame{Op: RespOK, Seq: f.Seq, Machine: f.Machine}
	case OpWords:
		words := mpc.WordsOf(w.stores[f.Machine])
		payload := make([]byte, 0, 10)
		payload = appendUvarint(payload, uint64(words))
		return Frame{Op: RespData, Seq: f.Seq, Machine: f.Machine, Payload: payload}
	case OpReset:
		w.stores = make(map[int32][]mpc.Record)
		w.machineWords = make(map[int32]int)
		w.totalWords = 0
		if w.sink != nil {
			w.sink.epochs.Inc()
		}
		return Frame{Op: RespOK, Seq: f.Seq, Machine: f.Machine}
	}
	return errFrame(f, "unknown op %d", byte(f.Op))
}

// die executes the armed crash. Called with the lock held.
func (w *Worker) die(conn net.Conn) {
	if w.Logf != nil {
		w.Logf("mpcworker: die-after tripped at op %d", w.ops)
	}
	if w.KillProcess {
		// A real crash: no response, no FIN handshake niceties, no
		// deferred cleanup — SIGKILL is not catchable.
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable; Kill does not return control here
	}
	conn.Close()
	w.lnMu.Lock()
	if w.ln != nil {
		w.ln.Close()
	}
	w.lnMu.Unlock()
}

// Words reports the worker's total resident words (test observability).
func (w *Worker) Words() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for _, st := range w.stores {
		total += mpc.WordsOf(st)
	}
	return total
}

// Store returns a copy of machine m's resident records (test observability).
func (w *Worker) Store(m int) []mpc.Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]mpc.Record(nil), w.stores[int32(m)]...)
}

func errFrame(req Frame, format string, args ...any) Frame {
	return Frame{Op: RespErr, Seq: req.Seq, Machine: req.Machine,
		Payload: []byte(fmt.Sprintf(format, args...))}
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// ListenAndServe binds addr (":0" style ephemeral ports allowed),
// announces the bound address on w's announce writer via the
// "MPCNET LISTEN <addr>" convention the spawner parses, and serves until
// the listener closes.
func (w *Worker) ListenAndServe(addr string, announce io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if announce != nil {
		fmt.Fprintf(announce, "MPCNET LISTEN %s\n", ln.Addr().String())
	}
	return w.Serve(ln)
}
