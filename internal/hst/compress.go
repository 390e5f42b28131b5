package hst

// Compress returns an equivalent tree with every unary chain (an internal
// node whose only child carries all its leaves) merged into a single
// edge whose weight is the chain's total. The tree metric over data
// points is preserved EXACTLY — only redundant internal nodes disappear.
//
// The MPC embedding (Algorithm 2) emits full-depth paths, so sparse
// regions produce long unary chains; compression typically shrinks those
// trees by a large factor, which matters when the embedding is the
// artifact being stored or shipped (the paper's compact-representation
// motivation). Node levels are retained from the DEEPEST node of each
// merged chain (the one whose geometry the surviving edge reflects).
func (t *Tree) Compress() *Tree {
	// For each kept node, walk down through unary internal nodes.
	// A node is "unary-internal" if it has exactly one child and is not a
	// leaf; the chain bottom is the first node that is a leaf or branches.
	// A chain bottom that carries a point keeps it, and its children, if
	// any, are expanded under its new id like an internal node's.
	b := NewBuilder(t.NumPoints())
	type task struct {
		origParent int // original id whose children we expand
		newParent  int
	}
	stack := []task{{origParent: 0, newParent: b.Root()}}
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Nodes[tk.origParent].Children {
			// Follow the unary chain from c downwards, accumulating weight.
			cur := c
			weight := t.Nodes[c].Weight
			for t.Nodes[cur].Point < 0 && len(t.Nodes[cur].Children) == 1 {
				next := t.Nodes[cur].Children[0]
				weight += t.Nodes[next].Weight
				cur = next
			}
			var id int
			if p := t.Nodes[cur].Point; p >= 0 {
				id = b.AddLeaf(tk.newParent, weight, t.Nodes[cur].Level, p)
			} else {
				id = b.AddNode(tk.newParent, weight, t.Nodes[cur].Level)
			}
			if len(t.Nodes[cur].Children) > 0 {
				stack = append(stack, task{origParent: cur, newParent: id})
			}
		}
	}
	return b.Finish()
}
