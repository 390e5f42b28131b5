// Shuffle-layer primitives built on the round engine: broadcast trees and
// the key owner hash routing sends records to. Broadcast is the standard
// O(log_f M)-round building block MPC algorithms assume (Goodrich et al.;
// Andoni et al.), implemented so that every word it moves is metered and
// capped like any other traffic.
package mpc

import "fmt"

// Broadcast replicates blob onto every machine, starting from src, using a
// fan-out tree: in each round every machine already holding the blob
// forwards it to as many new machines as its send budget allows. Takes
// ⌈log_{f+1} M⌉ rounds with f = CapWords/Words(blob). The blob is appended
// to every machine's store (including src's).
//
// The blob moves by reference: each round hands the round engine one
// (target, blob) send per new machine, which is metered, capped and
// fault-injected exactly like the blob's records emitted one by one, and
// reaches its target in a single store append.
func (c *Cluster) Broadcast(src int, blob []Record) error {
	if c.failed != nil {
		return ErrFailed
	}
	M := c.cfg.Machines
	if src < 0 || src >= M {
		return c.fail(fmt.Errorf("%w: broadcast source %d", ErrBadMachine, src))
	}
	bw := WordsOf(blob)
	fanout := 0
	if bw > 0 {
		fanout = c.cfg.CapWords / bw
	}
	if bw > 0 && fanout < 1 {
		return c.fail(fmt.Errorf("%w: broadcast blob of %d words exceeds cap %d", ErrLocalMemory, bw, c.cfg.CapWords))
	}

	// Seed the source.
	if err := c.t.Append(src, blob); err != nil {
		return c.fail(err)
	}
	if err := c.refreshSpace(); err != nil {
		return err
	}
	if bw == 0 {
		return nil
	}

	holds := make([]bool, M)
	holds[src] = true
	for held := 1; held < M; {
		// Plan this round: each holder, in machine order, covers up to
		// fanout of the machines still without the blob, in machine order.
		sends := make([][]send, M)
		next := 0
		for h := 0; h < M; h++ {
			if !holds[h] {
				continue
			}
			for k := 0; k < fanout; k++ {
				for next < M && holds[next] {
					next++
				}
				if next >= M {
					break
				}
				sends[h] = append(sends[h], send{to: next, recs: blob, words: bw})
				next++
			}
		}
		if err := c.round(nil, sends); err != nil {
			return err
		}
		for _, ss := range sends {
			for _, s := range ss {
				holds[s.to] = true
				held++
			}
		}
	}
	return nil
}

// Owner returns the machine that owns key: FNV-64a(key) mod machines.
// Algorithms route every record of one key to its owner, so that records
// sharing a key meet on one machine.
func Owner(key string, machines int) int {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(machines))
}
