// Shuffle-layer primitives built from Round: broadcast trees and hash
// aggregation. These are the standard O(1)- or O(log_f M)-round building
// blocks MPC algorithms assume (Goodrich et al.; Andoni et al.),
// implemented so that every word they move is metered and capped like any
// other traffic.
package mpc

import (
	"fmt"
	"hash/fnv"
)

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

// hashMachine routes a key to a machine deterministically.
func hashMachine(key string, machines int) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum64() % uint64(machines))
}

// AggregateByKey combines all records sharing a key into one, wherever
// they live, in one round: map-side combining first (so each machine sends
// at most one record per distinct local key), then hash routing, then
// reduce-side combining. combine must be associative and commutative.
func (c *Cluster) AggregateByKey(combine func(a, b Record) Record) error {
	M := c.cfg.Machines
	err := c.Round(func(m int, local []Record, emit Emit) []Record {
		for _, r := range combineByKey(local, combine) {
			emit(hashMachine(r.Key, M), r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return c.LocalMap(func(m int, local []Record) []Record {
		return combineByKey(local, combine)
	})
}

// combineByKey merges records with equal keys using combine, preserving
// first-occurrence order of keys.
func combineByKey(recs []Record, combine func(a, b Record) Record) []Record {
	idx := make(map[string]int, len(recs))
	out := recs[:0:0]
	for _, r := range recs {
		if i, ok := idx[r.Key]; ok {
			out[i] = combine(out[i], r)
		} else {
			idx[r.Key] = len(out)
			out = append(out, r)
		}
	}
	return out
}
