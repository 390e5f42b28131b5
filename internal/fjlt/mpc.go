// MPC implementation of the FJLT — Algorithm 3 of the paper, Theorem 3.
//
// The pipeline, with its round budget:
//
//  1. D·A: every machine multiplies its resident coordinate blocks by the
//     seed-derived ±1 signs — pure local work, 0 rounds. (The paper
//     allocates machines to generate D explicitly; deriving entries from
//     the shared O(1)-word seed is the standard derandomised-placement
//     trick and costs strictly less communication.)
//  2. H·(DA): the distributed Walsh–Hadamard transform — 2 rounds
//     (hadamard.DistFWHT, the paper's FFT step).
//  3. P·(HDA): column blocks of HDA are co-located with the P nonzeros of
//     the same columns (each machine regenerates its blocks' entries from
//     the seed), partial k-vectors are computed per point and hash-routed
//     to the point's owner, which sums them — 2 rounds.
//
// Total: 4 communication rounds, independent of n, d, and ε at these
// layouts; every word moved is metered by the cluster.
package fjlt

import (
	"fmt"
	"sort"

	"mpctree/internal/hadamard"
	"mpctree/internal/mpc"
	"mpctree/internal/vec"
)

// Record tags used by the MPC FJLT.
const (
	// TagOut marks a finished output record: Key "fj|<point>", Data =
	// k-dimensional embedded point.
	TagOut uint8 = 21
	// tagPartial marks an in-flight partial projection.
	tagPartial uint8 = 22
)

// OutKey is the record key of point i's output.
func OutKey(i int) string { return fmt.Sprintf("fj|%d", i) }

// ApplyMPC runs the FJLT over an existing cluster: pts are loaded in
// row-block layout, transformed, and the embedded points returned. The
// cluster's metrics then hold the round/space accounting for Theorem 3's
// claims. blockC 0 selects DefaultBlockC. Each machine's local work runs
// serially inside its round closure; the machines are the only fan-out.
func ApplyMPC(c *mpc.Cluster, pts []vec.Point, p Params, blockC int) ([]vec.Point, error) {
	n := len(pts)
	if n == 0 {
		return nil, fmt.Errorf("fjlt: empty point set")
	}
	for i, x := range pts {
		if len(x) != p.D {
			return nil, fmt.Errorf("fjlt: point %d has dimension %d, params expect %d", i, len(x), p.D)
		}
	}
	if blockC == 0 {
		blockC = DefaultBlockC(p.DPad)
	}
	if !hadamard.IsPow2(blockC) || blockC > p.DPad {
		return nil, fmt.Errorf("fjlt: bad blockC %d for dPad %d", blockC, p.DPad)
	}

	// Load A as row blocks (padding to DPad happens in DistributeVectors).
	vecs := make([][]float64, n)
	for i, x := range pts {
		vecs[i] = x
	}
	if err := hadamard.DistributeVectors(c, vecs, p.DPad, blockC); err != nil {
		return nil, err
	}

	// Step 1: D·A — local sign flips, no round.
	err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		for _, r := range local {
			if r.Tag != hadamard.TagRowBlock {
				continue
			}
			b := int(r.Ints[1])
			for t := range r.Data {
				r.Data[t] *= SignAt(p.Seed, b*blockC+t)
			}
		}
		return local
	})
	if err != nil {
		return nil, err
	}

	// Step 2: H·(DA) — 2 rounds.
	if err := hadamard.DistFWHT(c, p.DPad, blockC, 0); err != nil {
		return nil, err
	}

	// Step 3a: co-locate column blocks of HDA by block index so each
	// machine sees every point's values for its blocks — 1 round.
	M := c.Machines()
	err = c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		keep := local[:0:0]
		for _, r := range local {
			if r.Tag != hadamard.TagRowBlock {
				keep = append(keep, r)
				continue
			}
			emit(int(r.Ints[1])%M, r)
		}
		return keep
	})
	if err != nil {
		return nil, err
	}

	// Step 3b: multiply by regenerated P entries, emit one partial
	// k-vector per (machine, point), sum at the point's owner — 1 round.
	err = c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		keep := local[:0:0]
		// Group this machine's row-block records by point, preserving
		// store order within each group, and generate the P entries of
		// every resident block once — each block is an independent
		// (seed, col0) stream.
		type group struct {
			pt   int
			recs []mpc.Record
		}
		idx := make(map[int]int)
		var groups []group
		entriesByBlock := make(map[int][]PEntry)
		for _, r := range local {
			if r.Tag != hadamard.TagRowBlock {
				keep = append(keep, r)
				continue
			}
			pt, b := int(r.Ints[0]), int(r.Ints[1])
			if _, ok := entriesByBlock[b]; !ok {
				entriesByBlock[b] = PEntriesForColBlock(p, b*blockC, blockC)
			}
			gi, ok := idx[pt]
			if !ok {
				gi = len(groups)
				idx[pt] = gi
				groups = append(groups, group{pt: pt})
			}
			groups[gi].recs = append(groups[gi].recs, r)
		}
		// Emit one partial per point in point order. Each partial only
		// ever sees that point's records, in store order, so its float
		// addition sequence is fixed. Partials escape into the receiving
		// stores; they and their point ids are slices of one allocation
		// each per machine.
		sort.Slice(groups, func(a, b int) bool { return groups[a].pt < groups[b].pt })
		accs := make([]float64, len(groups)*p.K)
		ids := make([]int64, len(groups))
		for gi, g := range groups {
			acc := accs[gi*p.K : (gi+1)*p.K : (gi+1)*p.K]
			for _, r := range g.recs {
				b := int(r.Ints[1])
				for _, e := range entriesByBlock[b] {
					acc[e.Row] += e.Val * r.Data[e.Col-b*blockC]
				}
			}
			ids[gi] = int64(g.pt)
			emit(g.pt%M, mpc.Record{Key: OutKey(g.pt), Tag: tagPartial, Ints: ids[gi : gi+1 : gi+1], Data: acc})
		}
		return keep
	})
	if err != nil {
		return nil, err
	}

	// Sum partials and scale — local. Accumulators become the resident
	// output records: the machine's points are counted first, so every
	// accumulator is a slice of one allocation.
	err = c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep := local[:0:0]
		acc := make(map[int][]float64)
		for _, r := range local {
			if r.Tag == tagPartial {
				acc[int(r.Ints[0])] = nil
			}
		}
		sums := make([]float64, len(acc)*p.K)
		for _, r := range local {
			if r.Tag != tagPartial {
				keep = append(keep, r)
				continue
			}
			pt := int(r.Ints[0])
			a := acc[pt]
			if a == nil {
				a = sums[:p.K:p.K]
				sums = sums[p.K:]
				acc[pt] = a
			}
			for j, v := range r.Data {
				a[j] += v
			}
		}
		pids := make([]int, 0, len(acc))
		for pt := range acc {
			pids = append(pids, pt)
		}
		sort.Ints(pids)
		for _, pt := range pids {
			a := acc[pt]
			for j := range a {
				a[j] *= p.Scale
			}
			keep = append(keep, mpc.Record{Key: OutKey(pt), Tag: TagOut, Ints: []int64{int64(pt)}, Data: a})
		}
		return keep
	})
	if err != nil {
		return nil, err
	}

	// Driver-side readout.
	out := make([]vec.Point, n)
	recs, err := c.Collect()
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.Tag != TagOut {
			continue
		}
		pt := int(r.Ints[0])
		if pt < 0 || pt >= n || out[pt] != nil {
			return nil, fmt.Errorf("fjlt: malformed output record for point %d", pt)
		}
		out[pt] = r.Data
	}
	for i, x := range out {
		if x == nil {
			return nil, fmt.Errorf("fjlt: missing output for point %d", i)
		}
	}
	return out, nil
}
