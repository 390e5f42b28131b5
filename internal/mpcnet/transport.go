// Coordinator side of the TCP record plane: an mpc.Transport that keeps
// every logical machine's store on a remote worker process and moves
// serialized record payloads over TCP.
//
// Failure handling, in order of escalation:
//
//  1. Per-op deadlines. Every send/receive runs under OpTimeout; a slow
//     worker is indistinguishable from a dead one and is treated the same.
//  2. Retries with backoff. A failed op closes the connection, waits the
//     RetryPolicy's jittered exponential backoff, redials, and resends the
//     frame UNDER ITS ORIGINAL SEQ — the worker's dedup layer makes the
//     resend safe even if the first copy was applied and only the
//     response was lost.
//  3. Degradation. When the retry budget exhausts, the worker is declared
//     dead: its logical machines are remapped round-robin onto the
//     surviving workers and the op fails with an mpc.ErrTransport error.
//     The cluster latches the failure; the resilient driver restores the
//     last checkpoint, which rewrites every store through this transport
//     — through the NEW assignment — healing the remapped machines. The
//     replayed stage then produces output bit-identical to a fault-free
//     run, because all computation (and all randomness) lives on the
//     coordinator.
//
// When the last worker dies there is nothing left to degrade onto and
// every op — including the restore — keeps failing; the failure stays
// latched and surfaces to the driver as unrecoverable.
package mpcnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"mpctree/internal/mpc"
	"mpctree/internal/obs"
)

// Config shapes a coordinator transport.
type Config struct {
	// Addrs are the worker endpoints. Must be non-empty.
	Addrs []string
	// Machines is the logical machine count; machines are assigned to
	// workers round-robin (machine m starts on worker m % len(Addrs)).
	Machines int
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds one op attempt end to end: write request + read
	// response (default 10s).
	OpTimeout time.Duration
	// Retry is the per-op retry/backoff policy.
	Retry RetryPolicy
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 2 * time.Second
	}
	return c.DialTimeout
}

func (c Config) opTimeout() time.Duration {
	if c.OpTimeout <= 0 {
		return 10 * time.Second
	}
	return c.OpTimeout
}

// Stats counts the transport's work and its recoveries. Monotone over the
// transport's lifetime; read via Transport.Stats.
type Stats struct {
	Ops           int   // sequenced ops completed
	Retries       int   // op attempts beyond the first
	Redials       int   // reconnections established
	DeadWorkers   int   // workers declared dead
	Remapped      int   // logical machines remapped onto survivors
	BytesSent     int64 // frame bytes written
	BytesReceived int64 // frame payload bytes read

	// PerOp breaks the work down by op kind ("read", "append", …), so
	// tail behaviour is visible per kind: a Words probe and a bulk Append
	// have no business sharing a latency figure.
	PerOp map[string]OpStats
}

// OpStats is one op kind's slice of the transport's work.
type OpStats struct {
	Ops     int   // successful attempts (completed ops)
	Errors  int   // failed attempts (timeouts, refusals, torn connections)
	TotalNs int64 // wall time summed over successful attempts
	MaxNs   int64 // slowest successful attempt
}

// Transport implements mpc.Transport over TCP workers. Not safe for
// concurrent use — the owning Cluster serializes all calls, matching the
// interface contract.
type Transport struct {
	cfg    Config
	conns  []net.Conn // per worker; nil when not connected
	dead   []bool     // per worker
	assign []int      // logical machine → worker index
	seq    uint64     // last sequenced-op seq issued
	stats  Stats

	sink      *transportSink // nil when not instrumented
	traceRoot *obs.Span      // parent of per-attempt wire spans; nil disables

	mu sync.Mutex // guards Stats reads against the owner's op stream
}

var _ mpc.Transport = (*Transport)(nil)

// Dial connects to the configured workers and verifies each with a
// handshake. Workers that fail the initial handshake fail Dial outright —
// starting degraded is a configuration error, not a runtime fault.
func Dial(cfg Config) (*Transport, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("%w: no worker addresses", mpc.ErrTransport)
	}
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("%w: machine count %d", mpc.ErrTransport, cfg.Machines)
	}
	t := &Transport{
		cfg:    cfg,
		conns:  make([]net.Conn, len(cfg.Addrs)),
		dead:   make([]bool, len(cfg.Addrs)),
		assign: make([]int, cfg.Machines),
	}
	for m := 0; m < cfg.Machines; m++ {
		t.assign[m] = m % len(cfg.Addrs)
	}
	for w := range cfg.Addrs {
		conn, err := t.dial(w)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("%w: worker %d (%s) handshake: %v", mpc.ErrTransport, w, cfg.Addrs[w], err)
		}
		t.conns[w] = conn
		if err := t.exchange(w, Frame{Op: OpHello}); err != nil {
			t.Close()
			return nil, fmt.Errorf("%w: worker %d (%s) handshake: %v", mpc.ErrTransport, w, cfg.Addrs[w], err)
		}
	}
	return t, nil
}

func (t *Transport) Name() string  { return "tcp" }
func (t *Transport) Machines() int { return len(t.assign) }

// Stats returns a snapshot of the transport's counters. The PerOp map is
// deep-copied; callers own the result.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	if t.stats.PerOp != nil {
		s.PerOp = make(map[string]OpStats, len(t.stats.PerOp))
		for k, v := range t.stats.PerOp {
			s.PerOp[k] = v
		}
	}
	return s
}

// Instrument attaches a metrics registry: the transport's counters and
// per-op latency histograms appear as mpcnet_* series. Call before the
// first op; observational only.
func (t *Transport) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.sink = newTransportSink(reg)
}

// EnableTracing turns on distributed tracing: every op attempt opens a
// child span under root covering dial + request + response — the
// coordinator's view of wire time, to be read against the worker's
// service-time spans — and every sequenced frame carries that attempt
// span's context (root's trace id, the attempt's own span id), so the
// worker's service span names its true parent. A nil root disables.
// Call before the first op.
func (t *Transport) EnableTracing(root *obs.Span) {
	t.traceRoot = root
}

// LiveWorkers reports how many workers are still accepting ops.
func (t *Transport) LiveWorkers() int {
	n := 0
	for _, d := range t.dead {
		if !d {
			n++
		}
	}
	return n
}

func (t *Transport) dial(w int) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", t.cfg.Addrs[w], t.cfg.dialTimeout())
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return conn, nil
}

// exchange performs one framed request/response on worker w's live
// connection under the op deadline. It does NOT retry; op does.
func (t *Transport) exchange(w int, req Frame) error {
	_, err := t.exchangeResp(w, req)
	return err
}

func (t *Transport) exchangeResp(w int, req Frame) (Frame, error) {
	conn := t.conns[w]
	if conn == nil {
		return Frame{}, fmt.Errorf("no connection")
	}
	deadline := time.Now().Add(t.cfg.opTimeout())
	if err := conn.SetDeadline(deadline); err != nil {
		return Frame{}, err
	}
	buf := AppendFrame(make([]byte, 0, headerLen+len(req.Payload)+trailerLen), req)
	if _, err := conn.Write(buf); err != nil {
		return Frame{}, err
	}
	t.mu.Lock()
	t.stats.BytesSent += int64(len(buf))
	t.mu.Unlock()
	t.sink.addBytes(int64(len(buf)), 0)
	resp, err := ReadFrame(conn)
	if err != nil {
		return Frame{}, err
	}
	received := int64(frameWireLen(resp))
	t.mu.Lock()
	t.stats.BytesReceived += received
	t.mu.Unlock()
	t.sink.addBytes(0, received)
	if resp.Seq != req.Seq {
		return Frame{}, fmt.Errorf("%w: response seq %d for request seq %d", ErrWire, resp.Seq, req.Seq)
	}
	return resp, nil
}

// op runs one sequenced op against the worker hosting machine m, with
// the full retry/redial/degrade ladder. On success returns the response
// frame; on exhaustion the hosting worker is marked dead, m (and its
// co-hosted machines) are remapped, and the returned error wraps
// mpc.ErrTransport.
func (t *Transport) op(opCode Op, m int, payload []byte) (Frame, error) {
	w := t.assign[m]
	if t.dead[w] {
		// Should not happen — remap keeps assignments live — but a fully
		// dead cluster can leave stale assignments behind.
		return Frame{}, fmt.Errorf("%w: machine %d assigned to dead worker %d", mpc.ErrTransport, m, w)
	}
	return t.opWorker(w, opCode, int32(m), payload)
}

// opWorker runs one sequenced op against a specific worker.
func (t *Transport) opWorker(w int, opCode Op, machine int32, payload []byte) (Frame, error) {
	t.seq++
	req := Frame{Op: opCode, Seq: t.seq, Machine: machine, Payload: payload}

	var lastErr error
	attempts := t.cfg.Retry.maxAttempts()
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t.mu.Lock()
			t.stats.Retries++
			t.mu.Unlock()
			if t.sink != nil {
				t.sink.retries.Inc()
			}
			t.cfg.Retry.sleep(t.cfg.Retry.Backoff(req.Seq, attempt-1))
		}

		// One wire span per ATTEMPT, not per op: a retried op shows up as
		// two spans, which is exactly how it spent the wall clock. The
		// frame carries the attempt span's own context so the worker's
		// service span can name its true parent.
		span := t.traceRoot.Child(opCode.String())
		req.Trace = span.Context()
		span.Add("seq", int64(req.Seq))
		span.Add("machine", int64(machine))
		span.Add("attempt", int64(attempt))
		span.Add("worker", int64(w))
		start := time.Now()

		if t.conns[w] == nil {
			conn, err := t.dial(w)
			if err != nil {
				t.endAttempt(span, opCode, start, true)
				lastErr = err
				continue
			}
			t.conns[w] = conn
			t.mu.Lock()
			t.stats.Redials++
			t.mu.Unlock()
			if t.sink != nil {
				t.sink.redials.Inc()
			}
		}
		resp, err := t.exchangeResp(w, req)
		if err != nil {
			t.conns[w].Close()
			t.conns[w] = nil
			t.endAttempt(span, opCode, start, true)
			lastErr = err
			continue
		}
		if resp.Op == RespErr {
			// The worker is alive but refused the op. Retrying the same
			// bytes cannot succeed; fail without killing the worker.
			t.endAttempt(span, opCode, start, true)
			return Frame{}, fmt.Errorf("%w: worker %d rejected %s seq %d: %s",
				mpc.ErrTransport, w, opCode, req.Seq, resp.Payload)
		}
		span.Add("resp_bytes", int64(len(resp.Payload)))
		t.endAttempt(span, opCode, start, false)
		t.mu.Lock()
		t.stats.Ops++
		t.mu.Unlock()
		return resp, nil
	}

	t.markDead(w)
	return Frame{}, fmt.Errorf("%w: worker %d (%s) unreachable after %d attempts (%s machine %d): %v",
		mpc.ErrTransport, w, t.cfg.Addrs[w], attempts, opCode, machine, lastErr)
}

// endAttempt closes one attempt's wire span and records its latency and
// outcome in both the PerOp stats and the obs sink.
func (t *Transport) endAttempt(span *obs.Span, opCode Op, start time.Time, failed bool) {
	if failed {
		span.Add("failed", 1)
	}
	span.End()
	d := time.Since(start)
	t.sink.observeAttempt(opCode, d.Seconds(), failed)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats.PerOp == nil {
		t.stats.PerOp = make(map[string]OpStats)
	}
	s := t.stats.PerOp[opCode.String()]
	if failed {
		s.Errors++
	} else {
		s.Ops++
		s.TotalNs += d.Nanoseconds()
		if d.Nanoseconds() > s.MaxNs {
			s.MaxNs = d.Nanoseconds()
		}
	}
	t.stats.PerOp[opCode.String()] = s
}

// Reset clears every live worker's stores and sequence state, beginning a
// new session epoch. This is what lets one worker fleet serve a sequence
// of independent clusters (an mpcbench run dials a fresh transport per
// experiment cluster against the same processes).
func (t *Transport) Reset() error {
	for w := range t.cfg.Addrs {
		if t.dead[w] {
			continue
		}
		if _, err := t.opWorker(w, OpReset, -1, nil); err != nil {
			return err
		}
	}
	return nil
}

// markDead declares worker w dead and remaps its logical machines onto
// the survivors round-robin. The remapped machines hold stale (empty)
// stores until the next Restore rewrites them — which is exactly what the
// resilient driver does upon seeing the transport error.
func (t *Transport) markDead(w int) {
	if t.dead[w] {
		return
	}
	t.dead[w] = true
	if t.conns[w] != nil {
		t.conns[w].Close()
		t.conns[w] = nil
	}
	var survivors []int
	for i, d := range t.dead {
		if !d {
			survivors = append(survivors, i)
		}
	}
	t.mu.Lock()
	t.stats.DeadWorkers++
	t.mu.Unlock()
	if t.sink != nil {
		t.sink.dead.Inc()
	}
	if len(survivors) == 0 {
		return
	}
	next := 0
	remapped := 0
	for m, hw := range t.assign {
		if hw != w {
			continue
		}
		t.assign[m] = survivors[next%len(survivors)]
		next++
		remapped++
	}
	t.mu.Lock()
	t.stats.Remapped += remapped
	t.mu.Unlock()
	if t.sink != nil {
		t.sink.remapped.Add(int64(remapped))
	}
}

// Read fetches machine m's store. Remote reads decode into fresh slices,
// so callers own the result outright.
func (t *Transport) Read(m int) ([]mpc.Record, error) {
	resp, err := t.op(OpRead, m, nil)
	if err != nil {
		return nil, err
	}
	recs, err := mpc.DecodeRecords(resp.Payload)
	if err != nil {
		// CRC passed but the payload is not a record slice: a worker-side
		// bug or memory corruption. Not retryable.
		return nil, fmt.Errorf("%w: read machine %d: %v", mpc.ErrTransport, m, err)
	}
	return recs, nil
}

// Write replaces machine m's store.
func (t *Transport) Write(m int, recs []mpc.Record) error {
	_, err := t.op(OpWrite, m, mpc.EncodeRecords(recs))
	return err
}

// Append appends recs to machine m's store, preserving order.
func (t *Transport) Append(m int, recs []mpc.Record) error {
	if len(recs) == 0 {
		return nil
	}
	_, err := t.op(OpAppend, m, mpc.EncodeRecords(recs))
	return err
}

// Words returns machine m's resident word footprint, computed worker-side
// so the residency check costs a dozen bytes, not the whole store.
func (t *Transport) Words(m int) (int, error) {
	resp, err := t.op(OpWords, m, nil)
	if err != nil {
		return 0, err
	}
	v, n := binary.Uvarint(resp.Payload)
	if n <= 0 {
		return 0, fmt.Errorf("%w: words machine %d: bad payload", mpc.ErrTransport, m)
	}
	return int(v), nil
}

// Grow adds logical machines with empty stores, assigned round-robin over
// the live workers.
func (t *Transport) Grow(extra int) error {
	var survivors []int
	for i, d := range t.dead {
		if !d {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("%w: grow with no surviving workers", mpc.ErrTransport)
	}
	base := len(t.assign)
	for i := 0; i < extra; i++ {
		t.assign = append(t.assign, survivors[(base+i)%len(survivors)])
	}
	return nil
}

// Close closes all worker connections. Worker processes are owned by the
// spawner, not the transport, and keep running.
func (t *Transport) Close() error {
	for i, conn := range t.conns {
		if conn != nil {
			conn.Close()
			t.conns[i] = nil
		}
	}
	return nil
}
