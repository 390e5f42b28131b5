// Serialization for trees: a compact binary format (WriteTo/ReadFrom) for
// persisting embeddings — the paper's motivation of "maintaining a
// space-efficient embedding of a dataset before computation" — and a
// Graphviz DOT export for inspection.
package hst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// magic identifies the binary tree format (and its version).
var magic = [8]byte{'m', 'p', 'c', 't', 'r', 'e', 'e', '1'}

// WriteTo serialises the tree in a compact binary format. The derived
// state (children lists, depths, LCA tables, preorder, diameter bounds,
// medoid) is rebuilt on load, so only the structure travels: one 24-byte
// record per node, after a 24-byte header (magic, node and leaf counts).
// Every record goes out of one buffer, the way ReadTree reads it.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var rec [24]byte
	copy(rec[:8], magic[:])
	binary.LittleEndian.PutUint64(rec[8:], uint64(len(t.Nodes)))
	binary.LittleEndian.PutUint64(rec[16:], uint64(len(t.Leaf)))
	n, err := bw.Write(rec[:])
	written := int64(n)
	for _, nd := range t.Nodes {
		if err != nil {
			return written, err
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(int64(nd.Parent)))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(nd.Weight))
		binary.LittleEndian.PutUint64(rec[16:], uint64(int64(nd.Level))<<32|uint64(uint32(int32(nd.Point))))
		n, err = bw.Write(rec[:])
		written += int64(n)
	}
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// ReadTree deserialises a tree written by WriteTo and rebuilds all
// derived structures. The result is validated before being returned.
func ReadTree(r io.Reader) (*Tree, error) {
	// The arena is pre-sized only as far as the stream can back the
	// header, and doubles as records arrive beyond that: a lying header
	// must cost no more memory than the actual stream length provides.
	// A reader that knows its length (bytes.Reader, as the tree store
	// uses) bounds the node count exactly.
	arenaCap := uint64(1024)
	if lr, ok := r.(interface{ Len() int }); ok {
		arenaCap = uint64(lr.Len()) / 24
	}
	br := bufio.NewReader(r)
	rec := make([]byte, 24) // one node record; the header fits too
	if _, err := io.ReadFull(br, rec[:8]); err != nil {
		return nil, fmt.Errorf("hst: reading magic: %w", err)
	}
	if [8]byte(rec[:8]) != magic {
		return nil, fmt.Errorf("hst: bad magic %q", rec[:8])
	}
	if _, err := io.ReadFull(br, rec[:16]); err != nil {
		return nil, err
	}
	nNodes := binary.LittleEndian.Uint64(rec[0:])
	nLeaves := binary.LittleEndian.Uint64(rec[8:])
	const sanity = 1 << 32
	if nNodes == 0 || nNodes > sanity || nLeaves > nNodes {
		return nil, fmt.Errorf("hst: implausible sizes: %d nodes, %d leaves", nNodes, nLeaves)
	}
	nodes := make([]Node, 0, max(1, min(nNodes, arenaCap)))
	seenLeaves := 0
	for v := 0; v < int(nNodes); v++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("hst: truncated stream at node %d: %w", v, err)
		}
		packed := binary.LittleEndian.Uint64(rec[16:])
		n := Node{
			Parent: int(int64(binary.LittleEndian.Uint64(rec[0:]))),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
			Level:  int(int64(packed) >> 32),
			Point:  int(int32(uint32(packed))),
		}
		if v == 0 {
			if n.Parent != -1 || n.Point != -1 {
				return nil, fmt.Errorf("hst: stream node 0 is not a root")
			}
			n = Node{Parent: -1, Point: -1} // the root's weight and level are not data
		} else {
			if n.Parent < 0 || n.Parent >= v {
				return nil, fmt.Errorf("hst: node %d has invalid parent %d", v, n.Parent)
			}
			if n.Point >= 0 {
				if n.Point >= int(nLeaves) {
					return nil, fmt.Errorf("hst: leaf point %d out of range", n.Point)
				}
				seenLeaves++
			} else {
				n.Point = -1
			}
		}
		if len(nodes) == cap(nodes) {
			nodes = append(make([]Node, 0, min(2*cap(nodes), int(nNodes))), nodes...)
		}
		nodes = append(nodes, n)
	}
	if seenLeaves != int(nLeaves) {
		return nil, fmt.Errorf("hst: stream has %d leaves, header claims %d", seenLeaves, nLeaves)
	}
	leaf := make([]int, nLeaves)
	for i := range leaf {
		leaf[i] = -1
	}
	for v, n := range nodes {
		if n.Point < 0 {
			continue
		}
		if leaf[n.Point] != -1 {
			return nil, fmt.Errorf("hst: point %d appears twice", n.Point)
		}
		leaf[n.Point] = v
	}
	// With seenLeaves == nLeaves and no point twice, every point has a
	// leaf.
	t := &Tree{Nodes: nodes, Leaf: leaf}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("hst: deserialised tree invalid: %w", err)
	}
	t.derive()
	return t, nil
}

// DOT renders the tree in Graphviz format. Leaves are labelled with their
// point indices, internal nodes with their level; edges carry weights.
// Intended for small trees (inspection/teaching).
func (t *Tree) DOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph hst {")
	fmt.Fprintln(bw, "  rankdir=TB; node [shape=circle, fontsize=10];")
	for v, nd := range t.Nodes {
		if nd.Point >= 0 {
			fmt.Fprintf(bw, "  n%d [shape=box, label=\"p%d\"];\n", v, nd.Point)
		} else {
			fmt.Fprintf(bw, "  n%d [label=\"L%d\"];\n", v, nd.Level)
		}
	}
	for v, nd := range t.Nodes {
		if nd.Parent >= 0 {
			fmt.Fprintf(bw, "  n%d -> n%d [label=\"%.3g\"];\n", nd.Parent, v, nd.Weight)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
