// Package mpcapps implements Corollary 1's applications AS MPC
// algorithms — constant-round computations over the distributed tree
// embedding, not driver-side post-processing.
//
// The enabler is mpcembed's EmitPaths mode: after Algorithm 2 runs, each
// machine retains, per point it owns, the point's full ancestor-hash path
// (the path(p) tuple of the paper). Because a point knows ALL of its
// ancestors, per-node aggregates over the hierarchy need no level-by-level
// tree walk: every point emits one contribution per ancestor, combined
// map-side, one round sends them to the owner of their node (mpc.Owner),
// which combines them, and a one-round gather to machine 0 finishes —
// O(1) rounds total regardless of depth, exactly how Corollary 1
// piggybacks on Theorem 1.
//
//   - EMD: the optimal transport cost on a tree is
//     Σ_edges weight·|μ(subtree) − ν(subtree)|; per-node (μ, ν) masses
//     come from one aggregation over ancestor contributions.
//   - Densest ball: the per-node leaf counts at the deepest level whose
//     cluster-diameter bound is ≤ β·D, maximised with one gather.
//   - MST (mst.go): per-(parent, child) representative leaves from one
//     aggregation, then per-parent stars — exact under the tree metric
//     because full-depth paths put every leaf at the same depth.
package mpcapps

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcembed"
	"mpctree/internal/vec"
)

// Embedding is a distributed tree embedding ready for constant-round
// queries: the cluster holds the per-point path records, the driver holds
// the assembled tree and the run's geometry.
type Embedding struct {
	Cluster *mpc.Cluster
	Tree    *hst.Tree
	Info    *mpcembed.Info
	n       int
}

// Embed runs Algorithm 2 with path retention and returns the queryable
// distributed embedding.
func Embed(c *mpc.Cluster, pts []vec.Point, opt mpcembed.Options) (*Embedding, error) {
	opt.EmitPaths = true
	tree, info, err := mpcembed.Embed(c, pts, opt)
	if err != nil {
		return nil, err
	}
	return &Embedding{Cluster: c, Tree: tree, Info: info, n: len(pts)}, nil
}

// levelWeight returns the edge weight into level lev (1-based).
func (e *Embedding) levelWeight(lev int) float64 {
	return 2 * math.Sqrt(float64(e.Info.R)) * e.Info.Diameter / math.Pow(2, float64(lev))
}

// tag values local to this package's shuffles.
const (
	tagMass  uint8 = 40 // Key nodeHash, Ints [level], Data [mu, nu]
	tagCount uint8 = 41 // Key nodeHash, Ints [level], Data [count]
	tagTotal uint8 = 42 // reduction carrier
)

// EMD computes the tree Earth-Mover distance between measures mu and nu
// (indexed by point id, equal totals) in O(1) MPC rounds: ancestor
// contributions → one round to each node's owner → local per-node sums
// and Σ w·|imbalance| → gather.
func (e *Embedding) EMD(mu, nu []float64) (float64, error) {
	if len(mu) != e.n || len(nu) != e.n {
		return 0, errors.New("mpcapps: measure length mismatch")
	}
	var sm, sn float64
	for i := range mu {
		sm += mu[i]
		sn += nu[i]
	}
	if math.Abs(sm-sn) > 1e-9*(1+math.Abs(sm)) {
		return 0, fmt.Errorf("mpcapps: unequal masses %v vs %v", sm, sn)
	}
	c := e.Cluster
	M := c.Machines()
	levels := e.Info.Levels

	// Round 1: per ancestor contributions with map-side combining.
	err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		type key struct {
			hi, lo int64
			lev    int
		}
		acc := make(map[key][2]float64)
		for _, r := range local {
			if r.Tag != mpcembed.TagPath {
				continue
			}
			pid := int(r.Ints[0])
			for lev := 1; lev <= levels && 2*lev < len(r.Ints); lev++ {
				k := key{hi: r.Ints[2*lev-1], lo: r.Ints[2*lev], lev: lev}
				v := acc[k]
				v[0] += mu[pid]
				v[1] += nu[pid]
				acc[k] = v
			}
		}
		keys := make([]key, 0, len(acc))
		for k := range acc {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.lev != b.lev {
				return a.lev < b.lev
			}
			if a.hi != b.hi {
				return a.hi < b.hi
			}
			return a.lo < b.lo
		})
		for _, k := range keys {
			v := acc[k]
			nodeKey := fmt.Sprintf("n|%d|%d|%d", k.lev, uint64(k.hi), uint64(k.lo))
			emit(mpc.Owner(nodeKey, M), mpc.Record{Key: nodeKey, Tag: tagMass, Ints: []int64{int64(k.lev)}, Data: []float64{v[0], v[1]}})
		}
		return local
	})
	if err != nil {
		return 0, err
	}
	// Combine per node, then fold to per-machine partial costs. The leaf
	// edges (level levels+1, one per point) contribute w_{L+1}·|μ_i−ν_i|
	// each, computed from the resident path records.
	leafW := e.levelWeight(levels + 1)
	if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep := local[:0:0]
		sums := make(map[string]mpc.Record)
		var partial float64
		for _, r := range local {
			switch r.Tag {
			case tagMass:
				if prev, ok := sums[r.Key]; ok {
					prev.Data[0] += r.Data[0]
					prev.Data[1] += r.Data[1]
					sums[r.Key] = prev
				} else {
					sums[r.Key] = r
				}
				continue
			case mpcembed.TagPath:
				pid := int(r.Ints[0])
				partial += leafW * math.Abs(mu[pid]-nu[pid])
			}
			keep = append(keep, r)
		}
		skeys := make([]string, 0, len(sums))
		for k := range sums {
			skeys = append(skeys, k)
		}
		sort.Strings(skeys)
		for _, k := range skeys {
			r := sums[k]
			partial += e.levelWeight(int(r.Ints[0])) * math.Abs(r.Data[0]-r.Data[1])
		}
		keep = append(keep, mpc.Record{Key: "emdpart", Tag: tagTotal, Data: []float64{partial}})
		return keep
	}); err != nil {
		return 0, err
	}
	total, found, err := gatherTotals(c, func(acc, v float64) float64 { return acc + v })
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, errors.New("mpcapps: EMD reduction produced no result")
	}
	// Remove the consumed total so later queries start clean.
	if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep := local[:0:0]
		for _, r := range local {
			if r.Tag != tagTotal && r.Tag != tagMass {
				keep = append(keep, r)
			}
		}
		return keep
	}); err != nil {
		return 0, err
	}
	return total, nil
}

// BallResult is a distributed densest-ball answer.
type BallResult struct {
	Count         int
	Level         int
	DiameterBound float64
}

// DensestBall answers Corollary 1's bicriteria densest-ball query in O(1)
// MPC rounds: counts per cluster at the deepest level whose per-level
// cluster-diameter bound is ≤ β·D, maximised by a one-round gather.
func (e *Embedding) DensestBall(D, beta float64) (BallResult, error) {
	if D <= 0 || beta <= 0 {
		return BallResult{}, errors.New("mpcapps: need positive D and beta")
	}
	// Deepest level whose cluster diameter bound fits the budget. The
	// per-level bound is 2√r·w_lev = levelWeight(lev); clusters at lev
	// also contain their subtrees, so use the tail sum ≈ 2·levelWeight.
	levels := e.Info.Levels
	target := -1
	for lev := 1; lev <= levels; lev++ {
		if 2*e.levelWeight(lev) <= beta*D {
			target = lev
			break
		}
	}
	if target == -1 {
		target = levels // even the leaf scale violates the budget; answer at the bottom
	}
	c := e.Cluster
	M := c.Machines()
	err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		counts := make(map[[2]int64]float64)
		for _, r := range local {
			if r.Tag != mpcembed.TagPath {
				continue
			}
			if 2*target >= len(r.Ints) {
				continue
			}
			counts[[2]int64{r.Ints[2*target-1], r.Ints[2*target]}]++
		}
		ckeys := make([][2]int64, 0, len(counts))
		for k := range counts {
			ckeys = append(ckeys, k)
		}
		sort.Slice(ckeys, func(i, j int) bool {
			if ckeys[i][0] != ckeys[j][0] {
				return ckeys[i][0] < ckeys[j][0]
			}
			return ckeys[i][1] < ckeys[j][1]
		})
		for _, k := range ckeys {
			nodeKey := fmt.Sprintf("c|%d|%d", uint64(k[0]), uint64(k[1]))
			emit(mpc.Owner(nodeKey, M), mpc.Record{Key: nodeKey, Tag: tagCount, Data: []float64{counts[k]}})
		}
		return local
	})
	if err != nil {
		return BallResult{}, err
	}
	if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep := local[:0:0]
		sums := make(map[string]float64)
		for _, r := range local {
			if r.Tag != tagCount {
				keep = append(keep, r)
				continue
			}
			sums[r.Key] += r.Data[0]
		}
		best := 0.0
		for _, v := range sums {
			if v > best {
				best = v
			}
		}
		if len(sums) > 0 {
			keep = append(keep, mpc.Record{Key: "dbmax", Tag: tagTotal, Data: []float64{best}})
		}
		return keep
	}); err != nil {
		return BallResult{}, err
	}
	best, _, err := gatherTotals(c, math.Max)
	if err != nil {
		return BallResult{}, err
	}
	if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep := local[:0:0]
		for _, r := range local {
			if r.Tag != tagTotal && r.Tag != tagCount {
				keep = append(keep, r)
			}
		}
		return keep
	}); err != nil {
		return BallResult{}, err
	}
	return BallResult{Count: int(best), Level: target, DiameterBound: 2 * e.levelWeight(target)}, nil
}

// gatherTotals ships every tagTotal record to machine 0 (one tiny record
// per machine, one round) and folds their values with combine, without
// touching any other resident record.
func gatherTotals(c *mpc.Cluster, combine func(acc, v float64) float64) (float64, bool, error) {
	err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		keep := local[:0:0]
		for _, r := range local {
			if r.Tag == tagTotal {
				emit(0, r)
				continue
			}
			keep = append(keep, r)
		}
		return keep
	})
	if err != nil {
		return 0, false, err
	}
	var total float64
	found := false
	for _, r := range c.Store(0) {
		if r.Tag == tagTotal {
			if !found {
				total = r.Data[0]
				found = true
			} else {
				total = combine(total, r.Data[0])
			}
		}
	}
	return total, found, nil
}
