// Package mpc is an in-process simulator of the Massively Parallel
// Computation model (Section 1.1 of the paper; Karloff–Suri–Vassilvitskii,
// Beame–Koutris–Suciu).
//
// A Cluster is a set of logical machines, each with a local memory cap of
// CapWords 64-bit words — the fully scalable regime sets
// CapWords = Θ((n·d)^ε). Computation proceeds in rounds: in a round every
// machine runs an arbitrary local computation over its resident records
// and emits messages to other machines; messages are delivered at the
// round boundary. The simulator enforces the model's constraints and
// meters its cost measures:
//
//   - a machine may neither send nor end a round holding more than
//     CapWords words (violations abort the computation with
//     ErrLocalMemory — they mean the *algorithm* does not fit the model);
//   - Metrics tracks rounds, the peak per-machine residency, the peak
//     total space, and cumulative communication volume.
//
// Machines execute concurrently (one goroutine each) but all scheduling
// nondeterminism is confined to the round boundary, where messages are
// merged in sender order — so a seeded program is bit-reproducible
// regardless of interleaving.
//
// Loading input (Distribute) and reading output (Collect) model the
// initial data placement and final result readout; they are not rounds.
//
// Record storage and delivery flow through a pluggable Transport
// (transport.go): the default in-process backend keeps the historical
// simulator semantics bit for bit, while internal/mpcnet backs the same
// Cluster with machines in separate OS processes over TCP. Transport
// failures surface as ErrTransport-class errors and are recoverable the
// same way injected faults are: restore a checkpoint and replay.
//
// Failures: any model violation, machine panic, or injected fault (see
// fault.go) marks the cluster failed; the failure is sticky until the
// driver rolls back to a Checkpoint (checkpoint.go). docs/MODEL.md
// ("Failure model & recovery") specifies the full semantics.
package mpc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Record is the unit of storage and communication: a routing/grouping key
// plus small typed payloads. Its footprint is measured in 64-bit words.
type Record struct {
	Key  string    // routing and grouping key; may be empty
	Tag  uint8     // application-defined record kind
	Ints []int64   // integer payload
	Data []float64 // floating-point payload
}

// Words returns the storage footprint of the record in 64-bit words:
// one word of header/tag plus the packed key, integer, and float payloads.
func (r Record) Words() int {
	return 1 + (len(r.Key)+7)/8 + len(r.Ints) + len(r.Data)
}

// WordsOf sums the footprint of a record slice.
func WordsOf(recs []Record) int {
	w := 0
	for _, r := range recs {
		w += r.Words()
	}
	return w
}

// Metrics are the MPC cost measures of everything the cluster has run.
type Metrics struct {
	Rounds        int // communication rounds executed
	MaxLocalWords int // peak words resident on any machine at any round end
	TotalSpace    int // peak sum of resident words across machines
	CommWords     int // cumulative words sent over all rounds
}

// Config sizes a cluster.
type Config struct {
	Machines int // number of machines (≥ 1)
	CapWords int // local memory per machine in words (≥ 1)
}

// FullyScalableCap returns c·(n·d)^eps rounded up — the paper's local
// memory budget for input size n·d, with an explicit constant because
// asymptotic bounds need one to become runnable.
func FullyScalableCap(n, d int, eps float64, c float64) int {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("mpc: eps=%v out of (0,1)", eps))
	}
	cap := c * math.Pow(float64(n)*float64(d), eps)
	if cap < 1 {
		return 1
	}
	return int(math.Ceil(cap))
}

// Cluster simulates an MPC deployment. Not safe for concurrent use by
// multiple driver goroutines; the per-round machine concurrency is
// internal.
type Cluster struct {
	cfg    Config
	t      Transport
	m      Metrics
	failed error

	trace      bool
	roundStats []RoundStat

	faults   *FaultPlan    // optional injection schedule (fault.go)
	recovery RecoveryStats // checkpoint/restore overhead (checkpoint.go)
	obs      *obsSink      // optional metrics export (obs.go); write-only

	// Round scratch, reused across rounds. Growing these from zero every
	// round was the dominant memory churn of element-heavy workloads (the
	// per-destination delivery slices and per-machine emit buffers re-grow
	// through every power of two, copying Record headers each time); the
	// buffers are cleared after delivery so no payload outlives its round.
	outsBuf    [][]roundMsg
	deliverBuf [][]Record
}

// roundMsg is one emitted message buffered between a RoundFunc's emit call
// and delivery.
type roundMsg struct {
	to  int
	rec Record
}

// Errors returned by cluster operations.
var (
	ErrLocalMemory = errors.New("mpc: local memory cap exceeded")
	ErrBadMachine  = errors.New("mpc: message to nonexistent machine")
	ErrFailed      = errors.New("mpc: cluster previously failed")
)

// New creates a cluster over the in-process reference transport with
// empty machine stores.
func New(cfg Config) *Cluster {
	if cfg.Machines < 1 {
		panic("mpc: need at least one machine")
	}
	return NewWithTransport(cfg, NewLocalTransport(cfg.Machines))
}

// NewWithTransport creates a cluster whose record plane is t — the
// in-process reference backend (NewLocalTransport) or a remote one
// (internal/mpcnet). The transport's logical machine count must match
// cfg.Machines: the algorithms' output depends on it. The machine count
// is fixed for the cluster's lifetime.
func NewWithTransport(cfg Config, t Transport) *Cluster {
	if cfg.Machines < 1 {
		panic("mpc: need at least one machine")
	}
	if cfg.CapWords < 1 {
		panic("mpc: need positive local memory")
	}
	if t.Machines() != cfg.Machines {
		panic(fmt.Sprintf("mpc: transport backs %d machines, config wants %d", t.Machines(), cfg.Machines))
	}
	return &Cluster{
		cfg:        cfg,
		t:          t,
		outsBuf:    make([][]roundMsg, cfg.Machines),
		deliverBuf: make([][]Record, cfg.Machines),
	}
}

// Machines returns the machine count.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// CapWords returns the per-machine local memory cap.
func (c *Cluster) CapWords() int { return c.cfg.CapWords }

// Metrics returns the cost measures accumulated so far.
func (c *Cluster) Metrics() Metrics { return c.m }

// Err returns the sticky failure, if any.
func (c *Cluster) Err() error { return c.failed }

// Store exposes machine m's resident records for inspection (driver-side;
// treat as read-only). Out-of-range m returns nil — the inspection
// counterpart of the messaging paths' ErrBadMachine discipline. A
// transport failure also returns nil and marks the cluster failed; use
// StoreErr when the distinction matters.
func (c *Cluster) Store(m int) []Record {
	recs, err := c.StoreErr(m)
	if err != nil {
		return nil
	}
	return recs
}

// StoreErr is Store with the transport error surfaced: a remote backend
// that cannot reach machine m's host reports why instead of reading as an
// empty store. The failure is latched on the cluster (sticky) so later
// operations fail fast.
func (c *Cluster) StoreErr(m int) ([]Record, error) {
	if m < 0 || m >= c.cfg.Machines {
		return nil, nil
	}
	recs, err := c.t.Read(m)
	if err != nil {
		return nil, c.fail(err)
	}
	return recs, nil
}

func (c *Cluster) fail(err error) error {
	if c.failed == nil {
		c.failed = err
	}
	return err
}

// checkSpace recomputes residency metrics after stores changed and
// returns a (not yet sticky) ErrLocalMemory error if any machine exceeds
// capWords — which a fault injection may have temporarily reduced.
// Transport failures during the check are sticky immediately.
func (c *Cluster) checkSpace(capWords int) error {
	total := 0
	for m := 0; m < c.cfg.Machines; m++ {
		w, err := c.t.Words(m)
		if err != nil {
			return c.fail(err)
		}
		total += w
		if w > c.m.MaxLocalWords {
			c.m.MaxLocalWords = w
		}
		if w > capWords {
			return fmt.Errorf("%w: machine %d holds %d words (cap %d)", ErrLocalMemory, m, w, capWords)
		}
	}
	if total > c.m.TotalSpace {
		c.m.TotalSpace = total
	}
	return nil
}

// refreshSpace checks residency against the configured cap.
func (c *Cluster) refreshSpace() error {
	err := c.checkSpace(c.cfg.CapWords)
	if c.obs != nil {
		c.obs.syncShape(c)
	}
	if err != nil {
		return c.fail(err)
	}
	return nil
}

// Distribute loads input records onto machines in contiguous chunks,
// balancing by words. Models the MPC input placement; costs no rounds.
func (c *Cluster) Distribute(recs []Record) error {
	if c.failed != nil {
		return ErrFailed
	}
	target := (WordsOf(recs) + c.cfg.Machines - 1) / c.cfg.Machines
	chunks := make([][]Record, c.cfg.Machines)
	m, w := 0, 0
	for _, r := range recs {
		rw := r.Words()
		if w+rw > target && w > 0 && m < c.cfg.Machines-1 {
			m++
			w = 0
		}
		chunks[m] = append(chunks[m], r)
		w += rw
	}
	for m, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		if err := c.t.Append(m, chunk); err != nil {
			return c.fail(err)
		}
	}
	return c.refreshSpace()
}

// Collect gathers every machine's store in machine order (driver-side
// readout; costs no rounds). Reading a failed cluster returns the sticky
// failure instead of partial garbage: the resident state after a fault is
// not trustworthy output.
func (c *Cluster) Collect() ([]Record, error) {
	if c.failed != nil {
		return nil, fmt.Errorf("%w: %v", ErrFailed, c.failed)
	}
	var out []Record
	for m := 0; m < c.cfg.Machines; m++ {
		st, err := c.t.Read(m)
		if err != nil {
			return nil, c.fail(err)
		}
		out = append(out, st...)
	}
	return out, nil
}

// Emit sends a record to machine `to` during a round.
type Emit func(to int, rec Record)

// RoundFunc is one machine's work in a round: compute over the local
// store, emit messages, and return the records to retain locally.
// Returning nil drops everything not re-emitted to self.
type RoundFunc func(m int, local []Record, emit Emit) (keep []Record)

// Round executes one MPC round with every machine running fn
// concurrently. It enforces the model: per-machine send volume ≤ cap,
// and per-machine residency after delivery ≤ cap. If a FaultPlan is
// installed, the round boundary may inject a fault (fault.go); injected
// faults surface as ErrInjected-class errors and mark the cluster failed
// until the driver restores a checkpoint. Transport failures — a remote
// machine's host gone mid-round — surface as ErrTransport-class errors,
// recoverable the same way.
func (c *Cluster) Round(fn RoundFunc) error { return c.round(fn, nil) }

// send is one by-reference message: a whole batch of records for machine
// to, metered as words — WordsOf(recs), computed once by the sender. The
// sender plans sends over existing machines, at most one to each machine
// per round.
type send struct {
	to    int
	recs  []Record
	words int
}

// round is the one round engine behind Round and Broadcast. A round's
// traffic is either the per-record messages fn emits or, when fn is nil,
// the by-reference sends (sends[m] are machine m's), in which case every
// machine keeps its store. Both kinds pass through the same fault
// injection, validation, metering and delivery, and a send costs exactly
// what its records would cost emitted one by one; it just reaches its
// target in one Append instead of being copied through the emit and
// delivery buffers record by record.
func (c *Cluster) round(fn RoundFunc, sends [][]send) error {
	if c.failed != nil {
		return ErrFailed
	}
	inj := injection{kind: FaultNone}
	if c.faults != nil {
		inj = c.faults.draw(c.cfg.Machines)
	}
	if inj.kind != FaultNone && c.obs != nil {
		c.obs.observeFault(inj.kind)
	}
	if inj.kind == FaultTransient {
		// The round never starts: no state changes, but the computation
		// is broken (sticky) until restored.
		return c.fail(injectedTransientErr(inj.tick))
	}
	effCap := c.cfg.CapWords
	pressured := inj.kind == FaultPressure
	if pressured {
		effCap = c.faults.pressuredCap(effCap)
	}

	M := c.cfg.Machines
	locals := make([][]Record, M)
	for m := 0; m < M; m++ {
		st, err := c.t.Read(m)
		if err != nil {
			return c.fail(err)
		}
		locals[m] = st
	}

	outs := c.outsBuf
	for m := 0; m < M; m++ {
		outs[m] = outs[m][:0]
	}
	keeps := locals
	if fn != nil {
		keeps = make([][]Record, M)
		errs := make([]error, M)
		// Latched at the round boundary: a RoundFunc that retains emit and
		// calls it after the round ends would otherwise silently corrupt
		// later accounting.
		var roundOver atomic.Bool
		var wg sync.WaitGroup
		wg.Add(M)
		for m := 0; m < M; m++ {
			go func(m int) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						errs[m] = fmt.Errorf("mpc: machine %d panicked: %v", m, p)
					}
				}()
				emit := func(to int, rec Record) {
					if roundOver.Load() {
						panic(fmt.Sprintf("mpc: machine %d called emit after its round ended; RoundFuncs must not retain emit across rounds", m))
					}
					outs[m] = append(outs[m], roundMsg{to: to, rec: rec})
				}
				keeps[m] = fn(m, locals[m], emit)
			}(m)
		}
		wg.Wait()
		roundOver.Store(true)
		for _, err := range errs {
			if err != nil {
				return c.fail(err)
			}
		}
	}

	// Apply injected faults to the round's output before delivery.
	// capInjected marks an injection that shrank the cap or added
	// messages: a cap violation under it is the injection's doing, not the
	// algorithm's, and is reported as injected.
	var injErr error
	capInjected := pressured
	switch inj.kind {
	case FaultCrash:
		// The victim's round output — kept records and sends — is lost,
		// and so is its store (the machine died holding it).
		outs[inj.machine] = nil
		if sends != nil {
			sends[inj.machine] = nil
		}
		keeps[inj.machine] = nil
		injErr = injectedCrashErr(inj.machine, inj.tick)
	case FaultDrop, FaultDuplicate:
		// Mangling decides message by message, so by-reference sends are
		// first expanded into the records they carry, in the order the
		// equivalent emits would produce: target by target, then batch
		// order.
		for m, ss := range sends {
			for _, s := range ss {
				for _, rec := range s.recs {
					outs[m] = append(outs[m], roundMsg{to: s.to, rec: rec})
				}
			}
		}
		sends = nil
		pm := c.faults.perMessage()
		mangled := 0
		for m := 0; m < M; m++ {
			kept := make([]roundMsg, 0, len(outs[m]))
			for _, ms := range outs[m] {
				if inj.r.Float64() < pm {
					mangled++
					if inj.kind == FaultDuplicate {
						kept = append(kept, ms, ms)
					}
					continue
				}
				kept = append(kept, ms)
			}
			outs[m] = kept
		}
		if mangled > 0 {
			injErr = injectedMangleErr(inj.kind, mangled, inj.tick)
			capInjected = inj.kind == FaultDuplicate
		}
	}

	// Validate send volumes and destinations. The same pass counts records
	// per destination so delivery buffers can be sized exactly once, and
	// files each by-reference send under its target.
	stat := RoundStat{Index: c.m.Rounds}
	recv := make([]int, M)
	recvRecs := make([]int, M)
	var inbox [][]Record
	if sends != nil {
		inbox = make([][]Record, M)
	}
	for m := 0; m < M; m++ {
		sent := 0
		for _, ms := range outs[m] {
			if ms.to < 0 || ms.to >= M {
				return c.fail(fmt.Errorf("%w: machine %d sent to %d", ErrBadMachine, m, ms.to))
			}
			w := ms.rec.Words()
			sent += w
			recv[ms.to] += w
			recvRecs[ms.to]++
		}
		if sends != nil {
			for _, s := range sends[m] {
				sent += s.words
				recv[s.to] += s.words
				inbox[s.to] = s.recs
			}
		}
		if sent > effCap {
			err := fmt.Errorf("%w: machine %d sent %d words (cap %d)", ErrLocalMemory, m, sent, effCap)
			if capInjected {
				err = injectedCapErr(err, inj.kind, inj.tick)
			}
			return c.fail(err)
		}
		c.m.CommWords += sent
		stat.SentWords += sent
		if sent > stat.MaxSent {
			stat.MaxSent = sent
		}
	}
	for _, r := range recv {
		if r > stat.MaxReceived {
			stat.MaxReceived = r
		}
	}

	// Deliver: install each machine's kept records, then append routed
	// messages in sender order for determinism (destination d receives
	// all of sender 0's messages in emit order, then sender 1's, …). A
	// by-reference send is its target's whole inbox and is appended as is.
	for m := 0; m < M; m++ {
		if err := c.t.Write(m, keeps[m]); err != nil {
			return c.fail(err)
		}
	}
	deliver := c.deliverBuf
	for m := 0; m < M; m++ {
		if cap(deliver[m]) < recvRecs[m] {
			deliver[m] = make([]Record, 0, recvRecs[m])
		} else {
			deliver[m] = deliver[m][:0]
		}
	}
	for m := 0; m < M; m++ {
		for _, ms := range outs[m] {
			deliver[ms.to] = append(deliver[ms.to], ms.rec)
		}
	}
	for m := 0; m < M; m++ {
		batch := deliver[m]
		if inbox != nil && inbox[m] != nil {
			batch = inbox[m]
		}
		if len(batch) == 0 {
			continue
		}
		// Transports copy the batch on Append (the local backend appends
		// into its store slice), so no store aliases a sent batch and the
		// delivery buffer is reusable next round.
		if err := c.t.Append(m, batch); err != nil {
			return c.fail(err)
		}
	}
	// Drop payload references from the reused scratch so records don't
	// outlive their round in a buffer the GC can't see past.
	for m := 0; m < M; m++ {
		clear(outs[m])
		clear(deliver[m])
		c.deliverBuf[m] = deliver[m][:0]
	}
	c.m.Rounds++
	err := c.checkSpace(effCap)
	if err != nil && capInjected && !errors.Is(err, ErrTransport) {
		err = injectedCapErr(err, inj.kind, inj.tick)
	}
	if err != nil {
		err = c.fail(err)
	}
	if c.trace {
		for m := 0; m < M; m++ {
			if w, werr := c.t.Words(m); werr == nil && w > stat.MaxResidency {
				stat.MaxResidency = w
			}
		}
		c.roundStats = append(c.roundStats, stat)
	}
	if c.obs != nil {
		c.obs.observeRound(c, stat)
	}
	if err != nil {
		return err
	}
	if injErr != nil {
		return c.fail(injErr)
	}
	return nil
}

// LocalMap applies a purely local transformation to every machine's store.
// Local computation is free in MPC (it happens within a round), so this
// costs no round — but the result must still fit in local memory.
func (c *Cluster) LocalMap(fn func(m int, local []Record) []Record) error {
	if c.failed != nil {
		return ErrFailed
	}
	M := c.cfg.Machines
	locals := make([][]Record, M)
	for m := 0; m < M; m++ {
		st, err := c.t.Read(m)
		if err != nil {
			return c.fail(err)
		}
		locals[m] = st
	}
	outs := make([][]Record, M)
	errs := make([]error, M)
	var wg sync.WaitGroup
	wg.Add(M)
	for m := 0; m < M; m++ {
		go func(m int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[m] = fmt.Errorf("mpc: machine %d panicked: %v", m, p)
				}
			}()
			outs[m] = fn(m, locals[m])
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return c.fail(err)
		}
	}
	for m := 0; m < M; m++ {
		if err := c.t.Write(m, outs[m]); err != nil {
			return c.fail(err)
		}
	}
	return c.refreshSpace()
}
