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

// oracleAssemble is the driver-side assembly as it was before it read
// ids as integer pairs: a map from 16-byte ids to nodes, a comparison
// sort of every edge, and a Builder arena grown by append. assemble must
// build the same tree from the same resident records.
func oracleAssemble(c *mpc.Cluster, n int) (*hst.Tree, error) {
	type edge struct {
		child, parent [16]byte
		level         int
		weight        float64
	}
	type leafRec struct {
		parent       [16]byte
		point, level int
		weight       float64
	}
	// The resident state after a fault is not trustworthy output.
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", mpc.ErrFailed, err)
	}
	// One pass fails fast on a coverage failure and counts the edges, so
	// the second fills slices allocated once.
	stores := make([][]mpc.Record, c.Machines())
	nEdges := 0
	for m := range stores {
		recs, err := c.StoreErr(m)
		if err != nil {
			return nil, err
		}
		stores[m] = recs
		for _, rec := range recs {
			switch rec.Tag {
			case TagFail:
				return nil, fmt.Errorf("%w (point %d, level %d, bucket %d)", ErrCoverage, rec.Ints[0], rec.Ints[1], rec.Ints[2])
			case TagEdge:
				nEdges++
			}
		}
	}
	edges := make([]edge, 0, nEdges)
	leaves := make([]leafRec, 0, n)
	for _, recs := range stores {
		for _, rec := range recs {
			switch rec.Tag {
			case TagEdge:
				e := edge{parent: nodeID(rec.Ints[1], rec.Ints[2]), level: int(rec.Ints[0]), weight: rec.Data[0]}
				copy(e.child[:], rec.Key)
				edges = append(edges, e)
			case TagLeaf:
				leaves = append(leaves, leafRec{parent: nodeID(rec.Ints[2], rec.Ints[3]), point: int(rec.Ints[0]), level: int(rec.Ints[1]), weight: rec.Data[0]})
			}
		}
	}
	if len(leaves) != n {
		return nil, fmt.Errorf("mpcembed: %d leaf records for %d points", len(leaves), n)
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if a.level != b.level {
			return cmp.Compare(a.level, b.level)
		}
		return bytes.Compare(a.child[:], b.child[:])
	})
	slices.SortFunc(leaves, func(a, b leafRec) int { return cmp.Compare(a.point, b.point) })

	b := hst.NewBuilder(n)
	nodeOf := make(map[[16]byte]int, len(edges)+1)
	nodeOf[rootHash()] = b.Root()
	for _, e := range edges {
		parent, ok := nodeOf[e.parent]
		if !ok {
			return nil, fmt.Errorf("mpcembed: edge at level %d references unknown parent", e.level)
		}
		nodeOf[e.child] = b.AddNode(parent, e.weight, e.level)
	}
	for _, lf := range leaves {
		parent, ok := nodeOf[lf.parent]
		if !ok {
			return nil, fmt.Errorf("mpcembed: leaf %d references unknown parent", lf.point)
		}
		b.AddLeaf(parent, lf.weight, lf.level, lf.point)
	}
	t := b.Finish()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("mpcembed: assembled invalid tree: %v", err)
	}
	return t, nil
}
