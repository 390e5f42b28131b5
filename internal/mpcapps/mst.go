package mpcapps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"mpctree/internal/mpc"
	"mpctree/internal/mpcembed"
)

// MSTEdge is one edge of the distributed spanning tree, weighted by the
// TREE metric (Corollary 1's MST approximates the Euclidean MST within
// the embedding's distortion; re-weight with true distances driver-side
// if desired).
type MSTEdge struct {
	A, B   int
	Weight float64
}

const tagRep uint8 = 43 // Key parentHash|childHash, Ints [pid]

// MST computes a minimum spanning tree of the point set under the tree
// metric in O(1) MPC rounds. Because Algorithm 2's paths run the full
// hierarchy depth, every leaf sits at the same depth, so within each
// internal node all child subtrees have equal leaf height and ANY
// representative leaf yields a minimum star — the MST is exactly the
// per-node star over child representatives:
//
//  1. every point contributes, per ancestor pair (parent, child), a
//     candidate representative (its own id), the minimum per child kept
//     map-side and again on the parent's owner — 1 round;
//  2. representatives regroup by parent, and each parent's machine emits
//     the star edges — 1 round;
//  3. the driver reads the edge list (n−1 edges).
//
// Edge weights are 2·(root-path weight below the parent's level), the
// exact tree distance between same-depth leaves meeting at that level.
func (e *Embedding) MST() ([]MSTEdge, error) {
	c := e.Cluster
	M := c.Machines()
	levels := e.Info.Levels

	// Tail[lev] = Σ_{l > lev} levelWeight(l) + leaf edge: root-path weight
	// strictly below a level-lev node, for the uniform leaf depth L+1.
	tail := make([]float64, levels+2)
	for lev := levels + 1; lev >= 1; lev-- {
		tail[lev-1] = tail[lev] + e.levelWeight(lev)
	}

	// Round 1: candidate representatives per (parent, child) ancestor pair.
	err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		type pc struct{ key string }
		best := make(map[string]int64)
		lvl := make(map[string]int)
		for _, r := range local {
			if r.Tag != mpcembed.TagPath {
				continue
			}
			pid := r.Ints[0]
			prevHi, prevLo := int64(0), int64(0) // root hash is zero
			for lev := 1; lev <= levels && 2*lev < len(r.Ints); lev++ {
				hi, lo := r.Ints[2*lev-1], r.Ints[2*lev]
				key := repKey(prevHi, prevLo, hi, lo)
				if b, ok := best[key]; !ok || pid < b {
					best[key] = pid
					lvl[key] = lev
				}
				prevHi, prevLo = hi, lo
			}
		}
		for key, pid := range best {
			emit(mpc.Owner(parentPart(key), M), mpc.Record{Key: key, Tag: tagRep, Ints: []int64{pid, int64(lvl[key])}})
		}
		return local
	})
	if err != nil {
		return nil, err
	}

	// Records for the same parent are co-located (routing used the parent
	// part only). Combine duplicates per (parent, child), then emit star
	// edges per parent — all local; edge records stay for the readout.
	const tagMSTEdge = 44
	if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep := local[:0:0]
		best := make(map[string]int64)
		lvl := make(map[string]int)
		for _, r := range local {
			if r.Tag != tagRep {
				keep = append(keep, r)
				continue
			}
			if b, ok := best[r.Key]; !ok || r.Ints[0] < b {
				best[r.Key] = r.Ints[0]
				lvl[r.Key] = int(r.Ints[1])
			}
		}
		// Group children by parent.
		children := make(map[string][]string)
		for key := range best {
			children[parentPart(key)] = append(children[parentPart(key)], key)
		}
		parents := make([]string, 0, len(children))
		for p := range children {
			parents = append(parents, p)
		}
		sort.Strings(parents)
		for _, p := range parents {
			kids := children[p]
			if len(kids) < 2 {
				continue
			}
			sort.Strings(kids)
			center := kids[0]
			for _, k := range kids {
				if best[k] < best[center] {
					center = k
				}
			}
			// Children of one parent share a level; leaves in different
			// children meet at the parent (level lev−1), so their tree
			// distance is twice the root-path weight below the parent.
			lev := lvl[center]
			w := 2 * tail[lev-1]
			for _, k := range kids {
				if k == center {
					continue
				}
				keep = append(keep, mpc.Record{
					Key:  "mstedge",
					Tag:  tagMSTEdge,
					Ints: []int64{best[k], best[center]},
					Data: []float64{w},
				})
			}
		}
		return keep
	}); err != nil {
		return nil, err
	}

	// Driver readout + cleanup.
	var edges []MSTEdge
	recs, err := c.Collect()
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.Tag == tagMSTEdge {
			edges = append(edges, MSTEdge{A: int(r.Ints[0]), B: int(r.Ints[1]), Weight: r.Data[0]})
		}
	}
	if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep := local[:0:0]
		for _, r := range local {
			if r.Tag != tagMSTEdge && r.Tag != tagRep {
				keep = append(keep, r)
			}
		}
		return keep
	}); err != nil {
		return nil, err
	}
	if len(edges) != e.n-1 {
		return nil, fmt.Errorf("mpcapps: MST produced %d edges for %d points", len(edges), e.n)
	}
	return edges, nil
}

// MSTCost sums the distributed MST's tree-metric edge weights.
func (e *Embedding) MSTCost() (float64, error) {
	edges, err := e.MST()
	if err != nil {
		return 0, err
	}
	var s float64
	for _, ed := range edges {
		s += ed.Weight
	}
	if math.IsNaN(s) {
		return 0, errors.New("mpcapps: non-finite MST cost")
	}
	return s, nil
}

// repKey packs (parentHash, childHash) into one string key whose first 16
// bytes are the parent (the routing prefix).
func repKey(pHi, pLo, cHi, cLo int64) string {
	var b [32]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(pHi))
	binary.LittleEndian.PutUint64(b[8:], uint64(pLo))
	binary.LittleEndian.PutUint64(b[16:], uint64(cHi))
	binary.LittleEndian.PutUint64(b[24:], uint64(cLo))
	return string(b[:])
}

func parentPart(key string) string { return key[:16] }
