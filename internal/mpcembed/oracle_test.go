package mpcembed

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"mpctree/internal/hst"
	"mpctree/internal/mpc"
)

// nodeID is the chain hash a record carries in two ints, each the
// little-endian reading of one half.
func nodeID(a, b int64) [16]byte {
	var id [16]byte
	binary.LittleEndian.PutUint64(id[:8], uint64(a))
	binary.LittleEndian.PutUint64(id[8:], uint64(b))
	return id
}

// oracleAssemble is the union of the resident path records built the
// plain way: every path's (level, child, parent) triples in one slice, a
// comparison sort of them by level and child bytes, and a map from
// (level, 16-byte id) to node. It reads the records' ints directly, not
// through PathAt. assemble must build the same tree from the same
// records, and fail where it fails with the same error.
func oracleAssemble(c *mpc.Cluster, n, levels int, diam, diamFactor float64) (*hst.Tree, error) {
	type node struct {
		level int
		id    [16]byte
	}
	type edge struct {
		child, parent node
	}
	// The resident state after a fault is not trustworthy output.
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", mpc.ErrFailed, err)
	}
	paths := make(map[int][]int64, n)
	for m := 0; m < c.Machines(); m++ {
		recs, err := c.StoreErr(m)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			switch rec.Tag {
			case TagFail:
				if len(rec.Ints) != 3 {
					return nil, fmt.Errorf("mpcembed: failure record with %d ints, want 3", len(rec.Ints))
				}
				return nil, fmt.Errorf("%w (point %d, level %d, bucket %d)", ErrCoverage, rec.Ints[0], rec.Ints[1], rec.Ints[2])
			case TagPath:
				if len(rec.Ints) != 1+2*levels {
					return nil, fmt.Errorf("mpcembed: path with %d ints, want %d", len(rec.Ints), 1+2*levels)
				}
				p := int(rec.Ints[0])
				if p < 0 || p >= n {
					return nil, fmt.Errorf("mpcembed: path of point %d, outside [0, %d)", p, n)
				}
				if _, dup := paths[p]; dup {
					return nil, fmt.Errorf("mpcembed: point %d has two paths", p)
				}
				paths[p] = rec.Ints
			}
		}
	}
	var edges []edge
	for p := 0; p < n; p++ {
		ints, ok := paths[p]
		if !ok {
			return nil, fmt.Errorf("mpcembed: point %d has no path", p)
		}
		parent := node{0, rootHash()}
		for lev := 1; lev <= levels; lev++ {
			child := node{lev, nodeID(ints[2*lev-1], ints[2*lev])}
			edges = append(edges, edge{child, parent})
			parent = child
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if a.child.level != b.child.level {
			return cmp.Compare(a.child.level, b.child.level)
		}
		return bytes.Compare(a.child.id[:], b.child.id[:])
	})
	weight := make([]float64, levels+2)
	w := diam / 2
	for lev := 1; lev <= levels+1; lev++ {
		weight[lev] = diamFactor * w
		w /= 2
	}

	b := hst.NewBuilder(n)
	nodeOf := map[node]int{{0, rootHash()}: b.Root()}
	parentOf := map[node]node{}
	for _, e := range edges {
		if _, seen := nodeOf[e.child]; seen {
			if parentOf[e.child] != e.parent {
				return nil, fmt.Errorf("mpcembed: a level-%d id has two parents", e.child.level)
			}
			continue
		}
		parentOf[e.child] = e.parent
		nodeOf[e.child] = b.AddNode(nodeOf[e.parent], weight[e.child.level], e.child.level)
	}
	for p := 0; p < n; p++ {
		ints := paths[p]
		last := node{levels, nodeID(ints[2*levels-1], ints[2*levels])}
		b.AddLeaf(nodeOf[last], weight[levels+1], levels+1, p)
	}
	t := b.Finish()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("mpcembed: assembled invalid tree: %v", err)
	}
	return t, nil
}
