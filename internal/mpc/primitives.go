// Shuffle-layer primitives built from Round: broadcast trees, TeraSort
// style global sort, and hash aggregation. These are the standard O(1)- or
// O(log_f M)-round building blocks MPC algorithms assume (Goodrich et al.;
// Andoni et al.), implemented so that every word they move is metered and
// capped like any other traffic.
package mpc

import (
	"fmt"
	"hash/fnv"
	"sort"
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

// ShuffleByKey routes every resident record to machine hash(key) % M in
// one round. Records with equal keys land on one machine.
func (c *Cluster) ShuffleByKey() error {
	M := c.cfg.Machines
	return c.Round(func(m int, local []Record, emit Emit) []Record {
		for _, r := range local {
			emit(hashMachine(r.Key, M), r)
		}
		return nil
	})
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

// Reduce combines every resident record on the cluster into a single
// record delivered to machine dst, using an aggregation tree of fan-in f =
// CapWords/recordWords (≥ 2): each round, machines pre-combine locally and
// forward to a shrinking set of aggregators. combine must be associative
// and commutative; empty clusters deliver nothing.
func (c *Cluster) Reduce(dst int, combine func(a, b Record) Record) error {
	if c.failed != nil {
		return ErrFailed
	}
	M := c.cfg.Machines
	// Local pre-combine.
	if err := c.LocalMap(func(m int, local []Record) []Record {
		return foldAll(local, combine)
	}); err != nil {
		return err
	}
	// Tree: halve the aggregator set each round (fan-in 2 is always safe
	// for single-record payloads; higher fan-in only saves rounds we can
	// afford at simulator scales).
	active := M
	for active > 1 {
		half := (active + 1) / 2
		err := c.Round(func(m int, local []Record, emit Emit) []Record {
			if m >= half && m < active {
				for _, r := range local {
					emit(m-half, r)
				}
				return nil
			}
			return local
		})
		if err != nil {
			return err
		}
		if err := c.LocalMap(func(m int, local []Record) []Record {
			if m < half {
				return foldAll(local, combine)
			}
			return local
		}); err != nil {
			return err
		}
		active = half
	}
	if dst == 0 {
		return nil
	}
	// Move the result from machine 0 to dst.
	return c.Round(func(m int, local []Record, emit Emit) []Record {
		if m == 0 {
			for _, r := range local {
				emit(dst, r)
			}
			return nil
		}
		return local
	})
}

func foldAll(recs []Record, combine func(a, b Record) Record) []Record {
	if len(recs) <= 1 {
		return recs
	}
	acc := recs[0]
	for _, r := range recs[1:] {
		acc = combine(acc, r)
	}
	return []Record{acc}
}

// Tags reserved by SortByKey's control traffic. Application records must
// not use them while a sort is in flight.
const (
	TagSample   uint8 = 254
	TagSplitter uint8 = 255
)

// SortByKey globally sorts all resident records by key across the machine
// sequence (machine 0 holds the smallest keys), TeraSort style:
//
//  1. every machine sends a small evenly spaced sample of its keys to
//     machine 0;
//  2. machine 0 picks M−1 splitters and broadcasts them;
//  3. every record is routed to its splitter bucket and machines sort
//     locally.
//
// Takes O(1) rounds (+ the broadcast tree). Skewed key distributions can
// overload a bucket; that surfaces as ErrLocalMemory, faithfully to the
// model.
func (c *Cluster) SortByKey() error {
	if c.failed != nil {
		return ErrFailed
	}
	M := c.cfg.Machines
	if M == 1 {
		return c.LocalMap(func(m int, local []Record) []Record {
			SortRecords(local)
			return local
		})
	}
	const samplesPerMachine = 16
	// Round 1: sample.
	err := c.Round(func(m int, local []Record, emit Emit) []Record {
		sorted := append([]Record(nil), local...)
		SortRecords(sorted)
		k := samplesPerMachine
		if k > len(sorted) {
			k = len(sorted)
		}
		for i := 0; i < k; i++ {
			pick := sorted[i*len(sorted)/k]
			emit(0, Record{Key: pick.Key, Tag: TagSample})
		}
		return local
	})
	if err != nil {
		return err
	}
	// Machine 0 computes splitters.
	var splitters []string
	err = c.LocalMap(func(m int, local []Record) []Record {
		if m != 0 {
			return local
		}
		var samples []string
		keep := local[:0:0]
		for _, r := range local {
			if r.Tag == TagSample {
				samples = append(samples, r.Key)
			} else {
				keep = append(keep, r)
			}
		}
		sort.Strings(samples)
		for i := 1; i < M; i++ {
			if len(samples) == 0 {
				splitters = append(splitters, "")
				continue
			}
			splitters = append(splitters, samples[i*len(samples)/M])
		}
		return keep
	})
	if err != nil {
		return err
	}
	// Broadcast splitters.
	blob := make([]Record, len(splitters))
	for i, s := range splitters {
		blob[i] = Record{Key: s, Tag: TagSplitter, Ints: []int64{int64(i)}}
	}
	if err := c.Broadcast(0, blob); err != nil {
		return err
	}
	// Route by bucket, dropping control records, then sort locally.
	err = c.Round(func(m int, local []Record, emit Emit) []Record {
		sp := make([]string, M-1)
		for _, r := range local {
			if r.Tag == TagSplitter {
				sp[r.Ints[0]] = r.Key
			}
		}
		for _, r := range local {
			if r.Tag == TagSplitter || r.Tag == TagSample {
				continue
			}
			dst := sort.SearchStrings(sp, r.Key)
			// SearchStrings returns the first splitter ≥ key; records equal
			// to a splitter go left of it half the time is unnecessary —
			// ties all route to the same bucket, which keeps groups whole.
			for dst < len(sp) && sp[dst] == r.Key {
				dst++
			}
			emit(dst, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return c.LocalMap(func(m int, local []Record) []Record {
		SortRecords(local)
		return local
	})
}
