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
	// shifts[lev-1][j] holds the grids of level lev, bucket j, packed in
	// draw order as grid.FirstCover reads them (one bucket, one grid for
	// the grid method).
	shifts    [][][]float64
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
		e.shifts = append(e.shifts, part.Shifts())
	}
	return e, nil
}

// Tree returns the embedding tree.
func (e *Embedder) Tree() *hst.Tree { return e.tree }

// NumPoints returns the indexed point count.
func (e *Embedder) NumPoints() int { return len(e.pts) }

// pad checks q's dimension and returns q in the working dimension:
// zero-padded when the build padded the points, else q itself.
func (e *Embedder) pad(q vec.Point) vec.Point {
	if len(q) != e.origDim {
		panic(fmt.Sprintf("core: query dimension %d, index expects %d", len(q), e.origDim))
	}
	if len(q) == len(e.pts[0]) {
		return q
	}
	qq := make(vec.Point, len(e.pts[0]))
	copy(qq, q)
	return qq
}

// queryID computes the level-lev flat id of the padded query q (1-based
// level), or "" if q is uncovered at that level.
func (e *Embedder) queryID(q vec.Point, lev int) string {
	w := e.diam / math.Pow(2, float64(lev))
	var scratch [16]int64
	shifts := e.shifts[lev-1]
	if e.method == MethodGrid {
		g := grid.Grid{Dim: len(q), Cell: w, Shift: shifts[0]}
		return grid.Key(g.CellCoords(q, scratch[:0]))
	}
	id := ""
	for j, s := range shifts {
		u, idx, in := grid.FirstCover(vec.Bucket(q, j, e.r), s, 4*w, w, scratch[:0])
		if !in {
			return ""
		}
		id += string([]byte{byte(j)}) + grid.KeyWithPrefix(uint64(u), idx)
	}
	return id
}

// Locate descends the hierarchy with the same random grids that embedded
// the data and returns the deepest tree node whose cluster the query
// falls into (the root if it immediately diverges), plus the depth
// reached in levels.
func (e *Embedder) Locate(q vec.Point) (node, level int) {
	return e.locate(e.pad(q))
}

// locate is Locate for a padded query.
func (e *Embedder) locate(q vec.Point) (node, level int) {
	for lev := 1; lev <= e.levels; lev++ {
		id := e.queryID(q, lev)
		if id == "" {
			return node, lev - 1
		}
		child, ok := e.childByID[node][id]
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
	qq := e.pad(q)
	node, _ := e.locate(qq)
	p := e.repLeaf[node]
	return p, vec.Dist(e.pts[p], qq)
}

// Refine improves a candidate by scanning every point in the located
// cluster and returning the true nearest among them — still typically far
// fewer than n points.
func (e *Embedder) Refine(q vec.Point) (point int, dist float64) {
	qq := e.pad(q)
	node, _ := e.locate(qq)
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
