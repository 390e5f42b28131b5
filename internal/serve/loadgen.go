// The load generator: drives sustained concurrent traffic at a running
// server over real HTTP and reports achieved QPS and latency quantiles.
// It is the acceptance harness for the serving layer (treeserve
// -selftest, the serve-smoke CI job, and the package's own tests):
// every response is checked — status, shape, and (when a verification
// tree is supplied) bit-identical agreement of batch distances with
// serial hst.Tree.Dist — and any mismatch is an error, not a statistic.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpctree/internal/hst"
	"mpctree/internal/workload"
)

// LoadOptions configures a load run.
type LoadOptions struct {
	Clients     int       // concurrent client goroutines; 0 = 4
	Queries     int       // total requests to issue across all clients; 0 = 10000
	Seed        uint64    // query-stream seed; runs with equal seeds are identical
	ReloadEvery int       // every k-th request (per client) also POSTs a hot reload; 0 = never
	Verify      *hst.Tree // when set, dist/knn answers are checked against it

	// Gate mode: when Ensemble is set, every EnsembleEvery-th dist
	// request (per client) is redirected at that ensemble name instead
	// of the plain tree; with VerifyEnsemble set, the answer must be
	// bit-identical to the serial elementwise min over those trees.
	Ensemble       string
	EnsembleEvery  int
	VerifyEnsemble []*hst.Tree
}

// LoadReport summarises a completed run.
type LoadReport struct {
	Requests int           // HTTP requests issued
	Queries  int           // individual queries answered (batch items)
	Errors   int           // non-2xx responses, transport errors, wrong answers
	Reloads  int           // hot reloads triggered mid-run
	Ensemble int           // ensemble-min queries issued (gate mode)
	Wall     time.Duration // fan-out wall time
	QPS      float64       // Queries / Wall
	P50, P99 time.Duration // request latency quantiles
	FirstErr string        // first error seen, for diagnostics
}

// String renders the report the way treeserve -selftest prints it.
func (r LoadReport) String() string {
	s := fmt.Sprintf("requests %d, queries %d, errors %d, reloads %d, wall %v, %.0f qps, p50 %v, p99 %v",
		r.Requests, r.Queries, r.Errors, r.Reloads, r.Wall.Round(time.Millisecond),
		r.QPS, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	if r.Ensemble > 0 {
		s += fmt.Sprintf(", ensemble %d", r.Ensemble)
	}
	return s
}

// loadBatch is the number of dist pairs per generated request.
const loadBatch = 16

// RunLoad drives the query stream at baseURL against the named tree and
// collects a report. The stream is workload.DefaultQueryMix with
// loadBatch-pair dist requests. Work is split across Clients
// goroutines, each walking a disjoint strided slice of one
// deterministic query stream, so the set of queries issued is
// independent of scheduling; only the interleaving varies.
func RunLoad(baseURL, tree string, numPoints int, opts LoadOptions) LoadReport {
	clients := opts.Clients
	if clients <= 0 {
		clients = 4
	}
	total := opts.Queries
	if total <= 0 {
		total = 10000
	}
	queries := workload.Queries(opts.Seed, numPoints, total, loadBatch, 1e6, workload.DefaultQueryMix())

	var (
		nQueries  atomic.Int64
		nErrors   atomic.Int64
		nReloads  atomic.Int64
		nEnsemble atomic.Int64
		firstErr  atomic.Pointer[string]
	)
	recordErr := func(err error) {
		nErrors.Add(1)
		msg := err.Error()
		firstErr.CompareAndSwap(nil, &msg)
	}
	latencies := make([][]time.Duration, clients)
	client := &http.Client{Timeout: 60 * time.Second}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(queries); i += clients {
				q := queries[i]
				t0 := time.Now()
				var answered int
				var err error
				if opts.Ensemble != "" && opts.EnsembleEvery > 0 && q.Kind == workload.QueryDist &&
					(i/clients)%opts.EnsembleEvery == opts.EnsembleEvery-1 {
					answered, err = issueEnsembleDist(client, baseURL, opts.Ensemble, q, opts.VerifyEnsemble)
					nEnsemble.Add(1)
				} else {
					answered, err = issue(client, baseURL, tree, q, opts.Verify)
				}
				latencies[c] = append(latencies[c], time.Since(t0))
				if err != nil {
					recordErr(fmt.Errorf("%s query %d: %w", q.Kind, i, err))
				} else {
					nQueries.Add(int64(answered))
				}
				if opts.ReloadEvery > 0 && (i/clients)%opts.ReloadEvery == opts.ReloadEvery-1 {
					if err := post(client, baseURL+"/v1/trees/reload", ReloadRequest{Tree: tree}, &ReloadResponse{}); err != nil {
						recordErr(fmt.Errorf("hot reload: %w", err))
					} else {
						nReloads.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(q * float64(len(all)-1))
		return all[i]
	}
	report := LoadReport{
		Requests: len(all),
		Queries:  int(nQueries.Load()),
		Errors:   int(nErrors.Load()),
		Reloads:  int(nReloads.Load()),
		Ensemble: int(nEnsemble.Load()),
		Wall:     wall,
		P50:      quantile(0.50),
		P99:      quantile(0.99),
	}
	if wall > 0 {
		report.QPS = float64(report.Queries) / wall.Seconds()
	}
	if p := firstErr.Load(); p != nil {
		report.FirstErr = *p
	}
	return report
}

// post sends a JSON request and decodes a JSON response, treating any
// non-2xx status as an error carrying the server's error message.
func post(client *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpResp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(httpResp.Body).Decode(&apiErr)
		return fmt.Errorf("%s: HTTP %d: %s", url, httpResp.StatusCode, apiErr.Error)
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

// issueEnsembleDist sends one dist batch at an ensemble name and, when
// verify trees are supplied, checks the answer against the serial
// elementwise min over them — the gate's fan-out must be bit-identical
// to querying the member trees one by one.
func issueEnsembleDist(client *http.Client, baseURL, ensemble string, q workload.Query, verify []*hst.Tree) (int, error) {
	var resp DistResponse
	if err := post(client, baseURL+"/v1/dist", DistRequest{Tree: ensemble, Pairs: q.Pairs}, &resp); err != nil {
		return 0, err
	}
	if len(resp.Dists) != len(q.Pairs) {
		return 0, fmt.Errorf("ensemble dist: %d answers for %d pairs", len(resp.Dists), len(q.Pairs))
	}
	if len(verify) > 0 {
		for i, p := range q.Pairs {
			want := verify[0].Dist(p[0], p[1])
			for _, t := range verify[1:] {
				if d := t.Dist(p[0], p[1]); d < want {
					want = d
				}
			}
			if resp.Dists[i] != want {
				return 0, fmt.Errorf("ensemble dist(%d,%d) = %v, want min %v (not bit-identical)", p[0], p[1], resp.Dists[i], want)
			}
		}
	}
	return len(q.Pairs), nil
}

// issue sends one generated query and validates the response shape
// (and, with verify set, the answers). Returns the number of individual
// queries the request answered.
func issue(client *http.Client, baseURL, tree string, q workload.Query, verify *hst.Tree) (int, error) {
	switch q.Kind {
	case workload.QueryDist:
		var resp DistResponse
		if err := post(client, baseURL+"/v1/dist", DistRequest{Tree: tree, Pairs: q.Pairs}, &resp); err != nil {
			return 0, err
		}
		if len(resp.Dists) != len(q.Pairs) {
			return 0, fmt.Errorf("dist: %d answers for %d pairs", len(resp.Dists), len(q.Pairs))
		}
		if verify != nil {
			for i, p := range q.Pairs {
				if want := verify.Dist(p[0], p[1]); resp.Dists[i] != want {
					return 0, fmt.Errorf("dist(%d,%d) = %v, want %v (not bit-identical)", p[0], p[1], resp.Dists[i], want)
				}
			}
		}
		return len(q.Pairs), nil
	case workload.QueryKNN:
		var resp KNNResponse
		if err := post(client, baseURL+"/v1/knn", KNNRequest{Tree: tree, Points: q.Points, K: q.K}, &resp); err != nil {
			return 0, err
		}
		if len(resp.Neighbors) != len(q.Points) {
			return 0, fmt.Errorf("knn: %d answers for %d points", len(resp.Neighbors), len(q.Points))
		}
		if verify != nil {
			for i, p := range q.Points {
				want := verify.KNN(p, q.K)
				if len(resp.Neighbors[i]) != len(want) {
					return 0, fmt.Errorf("knn(%d): %d neighbors, want %d", p, len(resp.Neighbors[i]), len(want))
				}
				for j := range want {
					if resp.Neighbors[i][j] != want[j] {
						return 0, fmt.Errorf("knn(%d)[%d] = %+v, want %+v", p, j, resp.Neighbors[i][j], want[j])
					}
				}
			}
		}
		return len(q.Points), nil
	case workload.QueryCut:
		var resp CutResponse
		if err := post(client, baseURL+"/v1/cut", CutRequest{Tree: tree, Scale: q.Scale}, &resp); err != nil {
			return 0, err
		}
		if resp.Clusters < 1 || len(resp.Sizes) != resp.Clusters {
			return 0, fmt.Errorf("cut(%v): %d clusters, %d sizes", q.Scale, resp.Clusters, len(resp.Sizes))
		}
		return 1, nil
	case workload.QueryEMD:
		var resp EMDResponse
		if err := post(client, baseURL+"/v1/emd", EMDRequest{Tree: tree, Mu: q.Mu, Nu: q.Nu}, &resp); err != nil {
			return 0, err
		}
		if resp.EMD < 0 {
			return 0, fmt.Errorf("emd(%q,%q) = %v < 0", q.Mu, q.Nu, resp.EMD)
		}
		return 1, nil
	case workload.QueryMedoid:
		var resp MedoidResponse
		if err := post(client, baseURL+"/v1/medoid", MedoidRequest{Tree: tree}, &resp); err != nil {
			return 0, err
		}
		if resp.Point < 0 {
			return 0, fmt.Errorf("medoid point %d", resp.Point)
		}
		return 1, nil
	}
	return 0, fmt.Errorf("unknown query kind %v", q.Kind)
}
