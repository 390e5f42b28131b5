// Package flow implements exact minimum-cost flow via successive shortest
// paths with Johnson potentials, and on top of it the exact Earth-Mover
// (optimal transport) distance used as the ground-truth comparator for the
// tree-embedding EMD of Corollary 1.
//
// Capacities and costs are float64 (EMD moves real-valued mass); a small
// epsilon treats nearly-saturated arcs as saturated so the augmenting loop
// terminates. Problem sizes are the experiment baselines' (hundreds of
// nodes), not production transport solvers'.
package flow

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

const eps = 1e-12

// arc is one directed residual arc; arcs are stored in pairs, arc i and
// i^1 being each other's reverses.
type arc struct {
	to   int
	cap  float64 // remaining capacity
	cost float64
}

// Graph is a directed flow network on n nodes.
type Graph struct {
	n    int
	arcs []arc
	adj  [][]int32 // arc indices per node
}

// NewGraph creates an empty network on n nodes.
func NewGraph(n int) *Graph {
	if n < 1 {
		panic("flow: need at least one node")
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// AddArc adds a directed arc from→to with the given capacity and per-unit
// cost (cost may be 0 but not negative: SSP with Dijkstra requires
// non-negative reduced costs, which holds when all input costs are
// non-negative).
func (g *Graph) AddArc(from, to int, capacity, cost float64) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("flow: arc %d→%d out of range", from, to))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	if cost < 0 {
		panic("flow: negative cost (SSP/Dijkstra requires non-negative costs)")
	}
	g.adj[from] = append(g.adj[from], int32(len(g.arcs)))
	g.arcs = append(g.arcs, arc{to: to, cap: capacity, cost: cost})
	g.adj[to] = append(g.adj[to], int32(len(g.arcs)))
	g.arcs = append(g.arcs, arc{to: from, cap: 0, cost: -cost})
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// MinCostFlow pushes up to want units from s to t, returning the flow
// actually sent and its total cost. It runs successive shortest paths on
// reduced costs; all arc costs must be non-negative (enforced by AddArc).
func (g *Graph) MinCostFlow(s, t int, want float64) (flow, cost float64, err error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n || s == t {
		return 0, 0, errors.New("flow: bad source/sink")
	}
	pot := make([]float64, g.n)
	dist := make([]float64, g.n)
	prevArc := make([]int32, g.n)

	for flow+eps < want {
		// Dijkstra with reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevArc[i] = -1
		}
		dist[s] = 0
		q := pq{{node: s}}
		for len(q) > 0 {
			it := heap.Pop(&q).(pqItem)
			if it.dist > dist[it.node]+eps {
				continue
			}
			for _, ai := range g.adj[it.node] {
				a := g.arcs[ai]
				if a.cap <= eps {
					continue
				}
				nd := dist[it.node] + a.cost + pot[it.node] - pot[a.to]
				if nd < dist[a.to]-eps {
					dist[a.to] = nd
					prevArc[a.to] = ai
					heap.Push(&q, pqItem{node: a.to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			break // no augmenting path
		}
		for i := range pot {
			if !math.IsInf(dist[i], 1) {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		push := want - flow
		for v := t; v != s; {
			ai := prevArc[v]
			if g.arcs[ai].cap < push {
				push = g.arcs[ai].cap
			}
			v = g.arcs[ai^1].to
		}
		if push <= eps {
			break
		}
		for v := t; v != s; {
			ai := prevArc[v]
			g.arcs[ai].cap -= push
			g.arcs[ai^1].cap += push
			cost += push * g.arcs[ai].cost
			v = g.arcs[ai^1].to
		}
		flow += push
	}
	return flow, cost, nil
}

// EMD computes the exact Earth-Mover distance between measures mu and nu
// (equal totals within 1e-9) under the given ground cost. O(n²) arcs and
// O(n) augmentations of O(n² log n) Dijkstras — a baseline for experiment
// scales, not large instances.
func EMD(mu, nu []float64, cost func(i, j int) float64) (float64, error) {
	if len(mu) != len(nu) {
		return 0, errors.New("flow: measure length mismatch")
	}
	n := len(mu)
	var sm, sn float64
	for i := range mu {
		if mu[i] < 0 || nu[i] < 0 {
			return 0, errors.New("flow: negative mass")
		}
		sm += mu[i]
		sn += nu[i]
	}
	if math.Abs(sm-sn) > 1e-9*(1+math.Abs(sm)) {
		return 0, fmt.Errorf("flow: unequal masses %v vs %v", sm, sn)
	}
	if sm == 0 {
		return 0, nil
	}
	// Nodes: 0..n-1 sources, n..2n-1 sinks, 2n source, 2n+1 sink.
	g := NewGraph(2*n + 2)
	s, t := 2*n, 2*n+1
	for i := 0; i < n; i++ {
		if mu[i] > 0 {
			g.AddArc(s, i, mu[i], 0)
		}
		if nu[i] > 0 {
			g.AddArc(n+i, t, nu[i], 0)
		}
	}
	for i := 0; i < n; i++ {
		if mu[i] <= 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if nu[j] <= 0 {
				continue
			}
			g.AddArc(i, n+j, math.Inf(1), cost(i, j))
		}
	}
	flow, c, err := g.MinCostFlow(s, t, sm)
	if err != nil {
		return 0, err
	}
	if math.Abs(flow-sm) > 1e-6*(1+sm) {
		return 0, fmt.Errorf("flow: transported %v of %v mass", flow, sm)
	}
	return c, nil
}
