// Transport is the record plane behind a Cluster: every cross-machine
// record movement — input placement (Distribute), round delivery (Round),
// driver readout (Collect), and checkpoint restore — flows through one.
//
// The in-process simulator is the reference backend (localTransport):
// machine stores are plain slices, Read hands out the live slice, and no
// byte is ever copied or serialized, so a Cluster over the local transport
// behaves — bit for bit, allocation for allocation — like the historical
// simulator. A remote backend (internal/mpcnet) keeps the stores in
// separate OS processes and moves serialized payloads over TCP; the
// Cluster neither knows nor cares, it just sees errors when the network
// misbehaves.
//
// Failure contract: a transport error must wrap ErrTransport. The Cluster
// marks itself failed (sticky) when one surfaces, exactly like a model
// violation, and the resilient driver treats the class as retryable —
// restore the last checkpoint (which rewrites every store through the
// transport, healing machines that were remapped onto surviving workers)
// and replay the stage with its original seed. Recovered output is
// therefore bit-identical to a fault-free run.
package mpc

import "errors"

// ErrTransport is the class of every transport-layer failure: connection
// loss, worker death, payload corruption. Matches via errors.Is; the
// resilient driver retries this class through checkpointed replay.
var ErrTransport = errors.New("mpc: transport failure")

// Transport is the pluggable record plane. Machine indices are logical:
// a backend may host several logical machines in one process (the local
// backend hosts all of them). Implementations need not be safe for
// concurrent use — the Cluster serializes every call.
type Transport interface {
	// Name labels the backend ("sim", "tcp") for metrics and logs.
	Name() string
	// Machines is the logical machine count, fixed at construction.
	Machines() int
	// Read returns machine m's resident records. The local backend
	// returns the live slice (callers may mutate records in place, the
	// historical RoundFunc idiom); remote backends return a fresh decode.
	Read(m int) ([]Record, error)
	// Write replaces machine m's resident records.
	Write(m int, recs []Record) error
	// Append appends recs to machine m's store, preserving order. The
	// store takes copies of the records, never the slice itself, so one
	// batch may be appended to several machines and reused afterwards.
	Append(m int, recs []Record) error
	// Words returns the resident word footprint of machine m — the
	// residency check's fast path, so a remote backend can answer from a
	// local sum instead of shipping the whole store back.
	Words(m int) (int, error)
	// Close releases backend resources. The local backend is a no-op.
	Close() error
}

// localTransport is the in-process reference backend: the simulator's
// historical [][]Record store plane behind the Transport interface.
type localTransport struct {
	stores [][]Record
}

// NewLocalTransport creates the in-process reference backend with
// machines empty stores. New wires one up automatically; it is exported
// for drivers that construct transports symmetrically across backends.
func NewLocalTransport(machines int) Transport {
	return &localTransport{stores: make([][]Record, machines)}
}

func (t *localTransport) Name() string  { return "sim" }
func (t *localTransport) Machines() int { return len(t.stores) }

func (t *localTransport) Read(m int) ([]Record, error) { return t.stores[m], nil }

func (t *localTransport) Write(m int, recs []Record) error {
	t.stores[m] = recs
	return nil
}

func (t *localTransport) Append(m int, recs []Record) error {
	t.stores[m] = append(t.stores[m], recs...)
	return nil
}

func (t *localTransport) Words(m int) (int, error) { return WordsOf(t.stores[m]), nil }

func (t *localTransport) Close() error { return nil }
