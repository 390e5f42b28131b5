// Package mpcapps implements Corollary 1's applications AS MPC
// algorithms — constant-round computations over the distributed tree
// embedding, not driver-side post-processing.
//
// The embedding is the Theorem-1 pipeline's (FJLT, Algorithm 2, then the
// 1/(1−ξ) rescale). Algorithm 2 leaves its path records resident: each
// machine holds, per point it owns, the point's full ancestor-hash path
// (the path(p) tuple of the paper), read with mpcembed.PathAt, and the
// coordinator's tree is the union of the same records. Because a point
// knows ALL of its ancestors, per-node aggregates over the hierarchy need
// no level-by-level tree walk:
// every point emits one contribution per ancestor, combined map-side, one
// round sends them to the owner of their node (mpc.Owner), which combines
// them, and a one-round gather to machine 0 finishes — O(1) rounds total
// regardless of depth, exactly how Corollary 1 piggybacks on Theorem 1.
// Edge weights come from the assembled tree, one per level, so answers
// carry whatever rescale the tree does. When the pipeline ran under the
// retry driver, so does every query; no query changes a path record, so a
// failed one rolls back to the records read once at embed time.
//
//   - EMD: the optimal transport cost on a tree is
//     Σ_edges weight·|μ(subtree) − ν(subtree)|; per-node (μ, ν) masses
//     come from one aggregation over ancestor contributions.
//   - Densest ball: the per-node leaf counts at the coarsest level whose
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
	"mpctree/internal/resilient"
)

// Embedding is a distributed tree embedding ready for constant-round
// queries: the cluster holds the per-point path records, the driver holds
// the assembled tree.
type Embedding struct {
	Cluster *mpc.Cluster
	Tree    *hst.Tree
	levels  int                // internal levels L; leaves sit at L+1
	weight  []float64          // weight[ℓ]: every edge into level ℓ, ℓ = 1..L+1
	paths   *mpc.Checkpoint    // nil: each query runs once
	retry   *resilient.Options // used when paths is set
}

// New wraps a cluster holding Algorithm 2's resident path records and the
// tree assembled from them. Every edge into level ℓ of that tree has the
// same weight, so the per-level table is read off tree.Nodes once. paths,
// if non-nil, is a checkpoint of those records: every query then runs
// under the retry driver with retry, and a failed one rolls back to it.
func New(c *mpc.Cluster, tree *hst.Tree, paths *mpc.Checkpoint, retry *resilient.Options) *Embedding {
	weight := make([]float64, tree.MaxLevel()+1)
	for _, nd := range tree.Nodes[1:] {
		weight[nd.Level] = nd.Weight
	}
	return &Embedding{Cluster: c, Tree: tree, levels: len(weight) - 2, weight: weight, paths: paths, retry: retry}
}

// Tags of the records queries create: one range, tagMass..tagMSTEdge, that
// the query runner drops.
const (
	tagMass    uint8 = 40 // Key nodeHash, Ints [level], Data [mu, nu]
	tagCount   uint8 = 41 // Key nodeHash, Data [count]
	tagTotal   uint8 = 42 // reduction carrier
	tagRep     uint8 = 43 // Key parentHash|childHash, Ints [pid, level]
	tagMSTEdge uint8 = 44 // Key "mstedge", Ints [a, b], Data [weight]
)

// query runs body, then drops every record tagged by a query, so the next
// query starts from the resident embedding alone. With a retry driver the
// two run as one resilient.Run step: each retry starts from the path
// records and the meters at this query's entry.
func (e *Embedding) query(name string, body func() error) error {
	step := func(int) error {
		if err := body(); err != nil {
			return err
		}
		return e.Cluster.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
			keep := local[:0:0]
			for _, r := range local {
				if r.Tag < tagMass || r.Tag > tagMSTEdge {
					keep = append(keep, r)
				}
			}
			return keep
		})
	}
	if e.paths == nil {
		return step(0)
	}
	_, err := resilient.Run(e.Cluster, e.paths, name, *e.retry, step)
	return err
}

// EMD computes the tree Earth-Mover distance between measures mu and nu
// (indexed by point id, equal totals) in O(1) MPC rounds: ancestor
// contributions → one round to each node's owner → local per-node sums
// and Σ w·|imbalance| → gather.
func (e *Embedding) EMD(mu, nu []float64) (float64, error) {
	if n := e.Tree.NumPoints(); len(mu) != n || len(nu) != n {
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
	levels := e.levels
	var total float64
	err := e.query("emd", func() error {
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
				for lev := 1; lev <= levels; lev++ {
					pid, hi, lo, ok := mpcembed.PathAt(r, lev)
					if !ok {
						break
					}
					k := key{hi: hi, lo: lo, lev: lev}
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
			return err
		}
		// Combine per node, then fold to per-machine partial costs. The leaf
		// edges (level levels+1, one per point) contribute w_{L+1}·|μ_i−ν_i|
		// each, computed from the resident path records.
		leafW := e.weight[levels+1]
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
					if pid, _, _, ok := mpcembed.PathAt(r, 0); ok {
						partial += leafW * math.Abs(mu[pid]-nu[pid])
					}
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
				partial += e.weight[r.Ints[0]] * math.Abs(r.Data[0]-r.Data[1])
			}
			keep = append(keep, mpc.Record{Key: "emdpart", Tag: tagTotal, Data: []float64{partial}})
			return keep
		}); err != nil {
			return err
		}
		total, err = gatherTotals(c, func(acc, v float64) float64 { return acc + v })
		return err
	})
	if err != nil {
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
// MPC rounds: counts per cluster at the coarsest level whose per-level
// cluster-diameter bound is ≤ β·D, maximised by a one-round gather.
func (e *Embedding) DensestBall(D, beta float64) (BallResult, error) {
	if D <= 0 || beta <= 0 {
		return BallResult{}, errors.New("mpcapps: need positive D and beta")
	}
	// Coarsest level whose cluster diameter bound fits the budget: the
	// first from the root with 2·w_lev ≤ β·D. Weights halve per level, so
	// two leaves below a level-lev node are at most 2·Σ_{l>lev} w_l < 2·w_lev
	// apart.
	levels := e.levels
	target := -1
	for lev := 1; lev <= levels; lev++ {
		if 2*e.weight[lev] <= beta*D {
			target = lev
			break
		}
	}
	if target == -1 {
		target = levels // even the leaf scale violates the budget; answer at the bottom
	}
	c := e.Cluster
	M := c.Machines()
	var best float64
	err := e.query("densest_ball", func() error {
		err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
			counts := make(map[[2]int64]float64)
			for _, r := range local {
				if r.Tag != mpcembed.TagPath {
					continue
				}
				if _, hi, lo, ok := mpcembed.PathAt(r, target); ok {
					counts[[2]int64{hi, lo}]++
				}
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
			return err
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
			return err
		}
		best, err = gatherTotals(c, math.Max)
		return err
	})
	if err != nil {
		return BallResult{}, err
	}
	return BallResult{Count: int(best), Level: target, DiameterBound: 2 * e.weight[target]}, nil
}

// gatherTotals ships every tagTotal record to machine 0 (one tiny record
// per machine, one round) and folds their values into 0 with combine,
// without touching any other resident record. Both folds used here, a sum
// and a max of counts, start exactly from 0.
func gatherTotals(c *mpc.Cluster, combine func(acc, v float64) float64) (float64, error) {
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
		return 0, err
	}
	recs, err := c.StoreErr(0)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, r := range recs {
		if r.Tag == tagTotal {
			total = combine(total, r.Data[0])
		}
	}
	return total, nil
}
