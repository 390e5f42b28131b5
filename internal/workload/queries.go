// Serving-layer query workloads: deterministic streams of tree-metric
// queries for the serving drills (internal/e2e) and benchmarks. Like
// the point-set generators, everything is a pure function of the seed —
// two runs with the same seed drive byte-identical request sequences,
// so a load test that fails is replayable.
package workload

import (
	"fmt"
	"math"

	"mpctree/internal/rng"
)

// QueryKind tags one generated query.
type QueryKind uint8

// The query mix the serving layer exposes.
const (
	QueryDist QueryKind = iota
	QueryKNN
	QueryCut
	QueryEMD
	QueryMedoid
)

func (k QueryKind) String() string {
	switch k {
	case QueryDist:
		return "dist"
	case QueryKNN:
		return "knn"
	case QueryCut:
		return "cut"
	case QueryEMD:
		return "emd"
	case QueryMedoid:
		return "medoid"
	}
	return "unknown"
}

// Query is one generated serving-layer request. Which fields are set
// depends on Kind: dist uses Pairs, knn uses Points and K, cut uses
// Scale, emd uses Mu/Nu (the "idx:mass" sparse syntax), medoid needs
// nothing beyond the tree.
type Query struct {
	Kind   QueryKind
	Pairs  [][2]int
	Points []int
	K      int
	Scale  float64
	Mu, Nu string
}

// QueryMix weights the kinds in a generated stream. Zero-value fields
// drop that kind; DefaultQueryMix is the serving benchmark's blend,
// dominated by batch distances like the motivating workload.
type QueryMix struct {
	Dist, KNN, Cut, EMD, Medoid int
}

// DefaultQueryMix serves mostly batch distances with a steady trickle
// of the heavier analytical queries.
func DefaultQueryMix() QueryMix { return QueryMix{Dist: 12, KNN: 4, Cut: 1, EMD: 2, Medoid: 1} }

// DistPairs returns count point-id pairs over n points, deterministic
// in seed. Pairs may repeat; both orders occur.
func DistPairs(seed uint64, n, count int) [][2]int {
	if n < 1 {
		panic("workload: DistPairs needs at least one point")
	}
	r := rng.New(seed)
	out := make([][2]int, count)
	for i := range out {
		out[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	return out
}

// Queries generates a deterministic stream of count queries over a tree
// with n points, drawn from the mix. batch sizes the per-query batches
// (dist pairs, knn points); scales for cut queries are drawn log-
// uniformly in [1, maxScale].
func Queries(seed uint64, n, count, batch int, maxScale float64, mix QueryMix) []Query {
	if n < 2 {
		panic("workload: query stream needs at least two points")
	}
	if batch < 1 {
		batch = 1
	}
	if maxScale < 1 {
		maxScale = 1
	}
	total := mix.Dist + mix.KNN + mix.Cut + mix.EMD + mix.Medoid
	if total == 0 {
		panic("workload: empty query mix")
	}
	r := rng.New(seed)
	kindAt := func(t int) QueryKind {
		switch {
		case t < mix.Dist:
			return QueryDist
		case t < mix.Dist+mix.KNN:
			return QueryKNN
		case t < mix.Dist+mix.KNN+mix.Cut:
			return QueryCut
		case t < mix.Dist+mix.KNN+mix.Cut+mix.EMD:
			return QueryEMD
		}
		return QueryMedoid
	}
	sparseMeasure := func() string {
		terms := 1 + r.Intn(4)
		s := ""
		for i := 0; i < terms; i++ {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%d:%g", r.Intn(n), 0.25+r.Float64())
		}
		return s
	}
	out := make([]Query, count)
	for i := range out {
		q := Query{Kind: kindAt(r.Intn(total))}
		switch q.Kind {
		case QueryDist:
			q.Pairs = make([][2]int, batch)
			for j := range q.Pairs {
				q.Pairs[j] = [2]int{r.Intn(n), r.Intn(n)}
			}
		case QueryKNN:
			q.K = 1 + r.Intn(8)
			q.Points = make([]int, 1+batch/4)
			for j := range q.Points {
				q.Points[j] = r.Intn(n)
			}
		case QueryCut:
			// Log-uniform scale: exp(U · ln maxScale).
			q.Scale = math.Pow(maxScale, r.Float64())
		case QueryEMD:
			q.Mu, q.Nu = sparseMeasure(), sparseMeasure()
		case QueryMedoid:
		}
		out[i] = q
	}
	return out
}
