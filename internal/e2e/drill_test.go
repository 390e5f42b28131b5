package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"mpctree/internal/hst"
	"mpctree/internal/serve"
	"mpctree/internal/workload"
)

// drill drives verified queries at a treeserve or a treegate and counts
// what comes back. Every answer is checked: dist and knn against trees
// read from disk, bit for bit (a JSON float64 round-trips exactly), and
// cut, EMD and medoid for form. A wrong answer counts as a failed
// request, as an HTTP error does.
type drill struct {
	base  string
	tree  string                 // the tree plain queries and reloads name
	trees map[string][]*hst.Tree // a name's trees; its dist is their serial elementwise min

	clients     int    // goroutines, each walking a strided slice of the queries
	reloadEvery int    // every reloadEvery-th request of a client also reloads tree; 0 = never
	ens         string // every ensEvery-th request of a client that is a dist names ens instead
	ensEvery    int

	answered, failed, reloads, ensembles atomic.Int64
	firstErr                             atomic.Pointer[string]
}

// mixed is the drills' query stream: requests from
// workload.DefaultQueryMix at stream seed 1, 16 pairs per dist.
func mixed(n, requests int) []workload.Query {
	return workload.Queries(1, n, requests, 16, 1e6, workload.DefaultQueryMix())
}

// run sends queries from d.clients goroutines. Client c sends queries c,
// c+clients, …, so which requests go out does not depend on scheduling.
func (d *drill) run(queries []workload.Query) {
	var wg sync.WaitGroup
	for c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(queries); i += d.clients {
				k, q, name := i/d.clients+1, queries[i], d.tree
				if d.ensEvery > 0 && k%d.ensEvery == 0 && q.Kind == workload.QueryDist {
					name = d.ens
					d.ensembles.Add(1)
				}
				answered, err := d.ask(q, name)
				if d.note(err, "%s query %d on %s", q.Kind, i, name) {
					d.answered.Add(int64(answered))
				}
				if d.reloadEvery > 0 && k%d.reloadEvery == 0 {
					err := send(d.base+"/v1/trees/reload", serve.ReloadRequest{Tree: d.tree}, &serve.ReloadResponse{})
					if d.note(err, "hot reload of %s", d.tree) {
						d.reloads.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// note counts a failed request, keeping the first error, and reports
// whether the request succeeded.
func (d *drill) note(err error, format string, args ...any) bool {
	if err == nil {
		return true
	}
	d.failed.Add(1)
	msg := fmt.Sprintf(format, args...) + ": " + err.Error()
	d.firstErr.CompareAndSwap(nil, &msg)
	return false
}

func (d *drill) String() string {
	s := fmt.Sprintf("%d query items answered, %d requests failed, %d reloads, %d ensemble dists",
		d.answered.Load(), d.failed.Load(), d.reloads.Load(), d.ensembles.Load())
	if first := d.firstErr.Load(); first != nil {
		s += "; first failure: " + *first
	}
	return s
}

// ask sends one query naming tree and checks the answer. It returns the
// number of query items answered.
func (d *drill) ask(q workload.Query, tree string) (int, error) {
	want := d.trees[tree]
	switch q.Kind {
	case workload.QueryDist:
		var resp serve.DistResponse
		if err := send(d.base+"/v1/dist", serve.DistRequest{Tree: tree, Pairs: q.Pairs}, &resp); err != nil {
			return 0, err
		}
		if len(resp.Dists) != len(q.Pairs) {
			return 0, fmt.Errorf("%d answers for %d pairs", len(resp.Dists), len(q.Pairs))
		}
		for i, p := range q.Pairs {
			w := want[0].Dist(p[0], p[1])
			for _, member := range want[1:] {
				w = min(w, member.Dist(p[0], p[1]))
			}
			if resp.Dists[i] != w {
				return 0, fmt.Errorf("dist(%d,%d) = %v, want %v", p[0], p[1], resp.Dists[i], w)
			}
		}
		return len(q.Pairs), nil
	case workload.QueryKNN:
		var resp serve.KNNResponse
		if err := send(d.base+"/v1/knn", serve.KNNRequest{Tree: tree, Points: q.Points, K: q.K}, &resp); err != nil {
			return 0, err
		}
		if len(resp.Neighbors) != len(q.Points) {
			return 0, fmt.Errorf("%d answers for %d points", len(resp.Neighbors), len(q.Points))
		}
		for i, p := range q.Points {
			if w := want[0].KNN(p, q.K); !slices.Equal(resp.Neighbors[i], w) {
				return 0, fmt.Errorf("knn(%d, k=%d) = %v, want %v", p, q.K, resp.Neighbors[i], w)
			}
		}
		return len(q.Points), nil
	case workload.QueryCut:
		var resp serve.CutResponse
		if err := send(d.base+"/v1/cut", serve.CutRequest{Tree: tree, Scale: q.Scale}, &resp); err != nil {
			return 0, err
		}
		if resp.Clusters < 1 || len(resp.Sizes) != resp.Clusters {
			return 0, fmt.Errorf("cut(%v): %d clusters, %d sizes", q.Scale, resp.Clusters, len(resp.Sizes))
		}
	case workload.QueryEMD:
		var resp serve.EMDResponse
		if err := send(d.base+"/v1/emd", serve.EMDRequest{Tree: tree, Mu: q.Mu, Nu: q.Nu}, &resp); err != nil {
			return 0, err
		}
		if resp.EMD < 0 {
			return 0, fmt.Errorf("emd(%q, %q) = %v < 0", q.Mu, q.Nu, resp.EMD)
		}
	case workload.QueryMedoid:
		var resp serve.MedoidResponse
		if err := send(d.base+"/v1/medoid", serve.MedoidRequest{Tree: tree}, &resp); err != nil {
			return 0, err
		}
		if resp.Point < 0 {
			return 0, fmt.Errorf("medoid point %d", resp.Point)
		}
	default:
		return 0, fmt.Errorf("unknown query kind %v", q.Kind)
	}
	return 1, nil
}

// send posts req as JSON and decodes a 2xx answer into resp; any other
// status is an error carrying the body.
func send(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	code, b, err := call(http.MethodPost, url, string(body))
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, resp)
}
