// Embedder: a persistent embedding index. Where Embed produces just the
// tree, NewEmbedder additionally retains the random grids that defined
// every level's partitioning, so that *out-of-sample* query points can be
// located in the hierarchy afterwards — the "compact representation of a
// high-dimensional dataset" use the paper motivates, turned into an
// approximate-nearest-neighbor index: a query descends the tree through
// the same grid assignments as the data did, and the deepest non-empty
// cluster it reaches yields candidate neighbors whose tree distance to
// the query is bounded by that cluster's diameter.
package core

import (
	"fmt"
	"math"

	"mpctree/internal/grid"
	"mpctree/internal/hst"
	"mpctree/internal/vec"
)

// Embedder is an immutable embedding index over a fixed point set.
type Embedder struct {
	method  Method
	pts     []vec.Point // working (padded) copy
	origDim int
	r       int
	levels  int
	diam    float64
	// grids[lev-1][j] is the ordered grid sequence of level lev, bucket j
	// (one entry, one grid for the grid method).
	grids     [][][]grid.Grid
	tree      *hst.Tree
	childByID []map[string]int
	repLeaf   []int
}

// NewEmbedder builds the embedding with the same run as Embed — its tree
// is Embed's for equal options — and keeps the index: each level's grids,
// replayed from the level's partition, and the tree's navigation maps.
func NewEmbedder(pts []vec.Point, opt Options) (*Embedder, error) {
	h, info, err := build(pts, opt)
	if err != nil {
		return nil, err
	}
	e := &Embedder{
		method: opt.Method, pts: h.pts, origDim: len(pts[0]), r: info.R,
		levels: info.Levels, diam: info.TopScale,
		tree: h.tree, childByID: h.childByID, repLeaf: h.repLeaf,
	}
	for _, part := range h.parts {
		e.grids = append(e.grids, part.Grids())
	}
	return e, nil
}

// Tree returns the embedding tree.
func (e *Embedder) Tree() *hst.Tree { return e.tree }

// NumPoints returns the indexed point count.
func (e *Embedder) NumPoints() int { return len(e.pts) }

// queryID computes the level-lev flat id of q (1-based level), or "" if q
// is uncovered at that level.
func (e *Embedder) queryID(q vec.Point, lev int) string {
	w := e.diam / math.Pow(2, float64(lev))
	var scratch [16]int64
	levGrids := e.grids[lev-1]
	if e.method == MethodGrid {
		g := levGrids[0][0]
		sc := g.CellCoords(q, scratch[:0])
		return grid.Key(sc)
	}
	id := ""
	for j := 0; j < e.r; j++ {
		found := false
		for u, g := range levGrids[j] {
			if idx, in := g.InBall(vec.Bucket(q, j, e.r), w, scratch[:0]); in {
				id += string([]byte{byte(j)}) + grid.KeyWithPrefix(uint64(u), idx)
				found = true
				break
			}
		}
		if !found {
			return ""
		}
	}
	return id
}

// Locate descends the hierarchy with the same random grids that embedded
// the data and returns the deepest tree node whose cluster the query
// falls into (the root if it immediately diverges), plus the depth
// reached in levels.
func (e *Embedder) Locate(q vec.Point) (node, level int) {
	if len(q) != e.origDim {
		panic(fmt.Sprintf("core: query dimension %d, index expects %d", len(q), e.origDim))
	}
	qq := q
	if len(e.pts) > 0 && len(q) < len(e.pts[0]) {
		qq = make(vec.Point, len(e.pts[0]))
		copy(qq, q)
	}
	node = 0
	for lev := 1; lev <= e.levels; lev++ {
		id := e.queryID(qq, lev)
		if id == "" {
			return node, lev - 1
		}
		m := e.childByID[node]
		child, ok := m[id]
		if !ok {
			return node, lev - 1
		}
		node = child
		if e.tree.Nodes[node].Point >= 0 {
			return node, lev
		}
	}
	return node, e.levels
}

// NearestCandidate returns an approximate nearest neighbor of q: the
// representative point of the deepest cluster q reaches. The returned
// distance is exact (Euclidean, against the original coordinates). The
// candidate's quality follows the embedding guarantee: points that stay
// with q through many levels are within O(√r·w_level) of it.
func (e *Embedder) NearestCandidate(q vec.Point) (point int, dist float64) {
	node, _ := e.Locate(q)
	p := e.repLeaf[node]
	if p < 0 {
		p = 0
	}
	qq := q
	if len(q) < len(e.pts[0]) {
		qq = make(vec.Point, len(e.pts[0]))
		copy(qq, q)
	}
	return p, vec.Dist(e.pts[p], qq)
}

// Refine improves a candidate by scanning every point in the located
// cluster and returning the true nearest among them — still typically far
// fewer than n points.
func (e *Embedder) Refine(q vec.Point) (point int, dist float64) {
	node, _ := e.Locate(q)
	qq := q
	if len(q) < len(e.pts[0]) {
		qq = make(vec.Point, len(e.pts[0]))
		copy(qq, q)
	}
	best, bestD := -1, math.Inf(1)
	var walk func(v int)
	walk = func(v int) {
		if p := e.tree.Nodes[v].Point; p >= 0 {
			if d := vec.Dist(e.pts[p], qq); d < bestD {
				best, bestD = p, d
			}
		}
		for _, c := range e.tree.Nodes[v].Children {
			walk(c)
		}
	}
	walk(node)
	if best == -1 {
		return e.NearestCandidate(q)
	}
	return best, bestD
}
