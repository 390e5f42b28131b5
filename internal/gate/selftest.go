// The gate selftest: the acceptance harness for the whole serving
// tier. It stands up a real fleet in one process — a versioned tree
// store holding k independently-seeded trees over one point set, N
// treeserve replicas loading from that store on fixed loopback ports,
// and a treegate in front — then drives the deterministic mixed query
// stream through the gate while a roller kills and restarts replicas
// under the load. Every dist/knn answer is verified bit-identical to a
// local serial computation (ensemble answers against the serial
// elementwise min over the member trees), every cache double-check must
// agree with the live backend, and any error anywhere fails the run:
// zero wrong answers is the bar, not a statistic.
package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
	"mpctree/internal/rng"
	"mpctree/internal/serve"
	"mpctree/internal/treestore"
	"mpctree/internal/workload"
)

// The selftest's fleet: selftestReplicas treeserve replicas serving a
// selftestEnsemble-tree ensemble over selftestPoints 4-dimensional
// points, embedded and queried from selftestSeed, with every
// selftestCacheCheck-th cache hit double-checked.
const (
	selftestReplicas   = 3
	selftestEnsemble   = 3
	selftestPoints     = 96
	selftestDim        = 4
	selftestSeed       = 1
	selftestCacheCheck = 8
)

// SelftestOptions sizes a selftest run. The zero value is the daemon's
// drill: 20000 queries from 8 clients with a rolling restart every
// 400ms.
type SelftestOptions struct {
	Queries      int           // load-generator queries; 0 = 20000
	Clients      int           // load-generator clients; 0 = 8
	RestartEvery time.Duration // rolling-restart pace; 0 = 400ms
	Logger       *slog.Logger  // nil = silent
}

// SelftestResult reports a completed run.
type SelftestResult struct {
	Report          serve.LoadReport
	Restarts        int   // replica kill/restart cycles completed mid-run
	CacheHits       int64 // gate answer-cache hits
	CacheMismatches int64 // cache double-checks that disagreed (must be 0)
	GateURL         string
}

func (r SelftestResult) String() string {
	return fmt.Sprintf("%v, restarts %d, cache hits %d, cache mismatches %d",
		r.Report, r.Restarts, r.CacheHits, r.CacheMismatches)
}

// replica is one treeserve instance the selftest can kill and revive on
// a fixed address.
type replica struct {
	addr  string
	store *treestore.Store
	names []string

	mu  sync.Mutex
	srv *http.Server
}

// start builds a fresh registry from the store (generations restart at
// 1, like a real process restart) and begins serving on the replica's
// fixed address.
func (rp *replica) start() error {
	reg := serve.NewRegistry(nil)
	for _, name := range rp.names {
		if err := reg.LoadWith(name, serve.StoreLoader(rp.store, name)); err != nil {
			return err
		}
	}
	mux := http.NewServeMux()
	serve.NewServer(reg, serve.Options{}).RegisterMux(mux)
	addr := rp.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// After a kill the port can need a beat to free; retry briefly.
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("gate selftest: rebind %s: %w", addr, err)
	}
	rp.addr = ln.Addr().String()
	srv := &http.Server{Handler: mux}
	rp.mu.Lock()
	rp.srv = srv
	rp.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// kill abruptly closes the replica — listener and all live connections —
// like a SIGKILL would.
func (rp *replica) kill() {
	rp.mu.Lock()
	srv := rp.srv
	rp.srv = nil
	rp.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// waitUp polls until the replica answers /v1/trees.
func (rp *replica) waitUp(client *http.Client, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + rp.addr + "/v1/trees")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("gate selftest: replica %s did not come back", rp.addr)
}

// Selftest runs the full drill and returns the outcome; err is non-nil
// on any wrong answer, failed request, or cache inconsistency.
func Selftest(o SelftestOptions) (SelftestResult, error) {
	if o.Queries <= 0 {
		o.Queries = 20000
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.RestartEvery <= 0 {
		o.RestartEvery = 400 * time.Millisecond
	}
	reg := obs.New()
	var result SelftestResult

	// One point set, k independently-seeded trees: the ensemble the
	// paper's w.h.p. distortion argument wants.
	dir, err := os.MkdirTemp("", "treegate-selftest-*")
	if err != nil {
		return result, err
	}
	defer os.RemoveAll(dir)
	st, err := treestore.Open(dir)
	if err != nil {
		return result, err
	}
	var names []string
	var verify []*hst.Tree
	pts := workload.UniformLattice(selftestSeed, selftestPoints, selftestDim, 1<<10)
	for i := 0; i < selftestEnsemble; i++ {
		tree, _, err := core.Embed(pts, core.Options{Seed: selftestSeed + uint64(i)})
		if err != nil {
			return result, err
		}
		name := fmt.Sprintf("t-%d", i)
		if _, err := st.Save(name, tree); err != nil {
			return result, err
		}
		names = append(names, name)
		verify = append(verify, tree)
	}

	// The replica fleet, each loading every tree from the store.
	replicas := make([]*replica, selftestReplicas)
	backends := make([]string, selftestReplicas)
	for i := range replicas {
		replicas[i] = &replica{store: st, names: names}
		if err := replicas[i].start(); err != nil {
			return result, err
		}
		defer replicas[i].kill()
		backends[i] = "http://" + replicas[i].addr
	}

	// The gate, health-polling fast enough to notice restarts mid-run.
	g, err := New(Options{
		Backends:        backends,
		Ensembles:       map[string][]string{"ens": names},
		CacheCheckEvery: selftestCacheCheck,
		HealthInterval:  100 * time.Millisecond,
		Retry:           mpcnet.RetryPolicy{Seed: selftestSeed},
		Obs:             reg,
		Logger:          o.Logger,
	})
	if err != nil {
		return result, err
	}
	g.Start()
	defer g.Stop()
	mux := http.NewServeMux()
	g.RegisterMux(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return result, err
	}
	gateSrv := &http.Server{Handler: mux}
	go func() { _ = gateSrv.Serve(ln) }()
	defer gateSrv.Close()
	result.GateURL = "http://" + ln.Addr().String()

	// The roller: kill → pause → revive, round-robin over replicas,
	// until the load finishes. The fleet never loses more than one
	// replica at a time, so the gate must absorb every restart.
	stopRoll := make(chan struct{})
	rollDone := make(chan int)
	go func() {
		restarts := 0
		client := &http.Client{Timeout: 2 * time.Second}
		defer func() { rollDone <- restarts }()
		for i := 0; ; i++ {
			select {
			case <-stopRoll:
				return
			case <-time.After(o.RestartEvery):
			}
			rp := replicas[i%len(replicas)]
			if o.Logger != nil {
				o.Logger.Info("rolling_restart", "replica", rp.addr)
			}
			rp.kill()
			time.Sleep(o.RestartEvery / 2)
			if err := rp.start(); err != nil {
				if o.Logger != nil {
					o.Logger.Error("restart_failed", "replica", rp.addr, "error", err.Error())
				}
				return
			}
			if err := rp.waitUp(client, 5*time.Second); err != nil {
				if o.Logger != nil {
					o.Logger.Error("restart_failed", "replica", rp.addr, "error", err.Error())
				}
				return
			}
			restarts++
		}
	}()

	// Sustained mixed load through the gate: plain queries verified
	// against the first tree, ensemble dists against the serial min.
	result.Report = serve.RunLoad(result.GateURL, names[0], verify[0].NumPoints(), serve.LoadOptions{
		Clients:        o.Clients,
		Queries:        o.Queries,
		Seed:           selftestSeed,
		ReloadEvery:    64,
		Verify:         verify[0],
		Ensemble:       "ens",
		EnsembleEvery:  4,
		VerifyEnsemble: verify,
	})

	// Hot-query phase, still under the roller: the main stream never
	// repeats a request body, so it proves failover but leaves the
	// answer cache cold. Hammering a small fixed set of dist batches
	// makes the cache serve real hits — and with them the every-Nth
	// double-checks that feed gate_cache_mismatch_total — while replicas
	// keep restarting underneath. Every answer, cached or live, must
	// still be bit-identical to serial.
	if err := hammerHotQueries(result.GateURL, names[0], verify[0], selftestSeed); err != nil {
		close(stopRoll)
		<-rollDone
		return result, err
	}
	close(stopRoll)
	result.Restarts = <-rollDone

	for _, v := range reg.Snapshot() {
		switch v.Name {
		case "gate_cache_hits_total":
			result.CacheHits += int64(v.Value)
		case "gate_cache_mismatch_total":
			result.CacheMismatches += int64(v.Value)
		}
	}
	if result.Report.Errors > 0 {
		return result, fmt.Errorf("gate selftest: %d wrong or failed answers (first: %s)", result.Report.Errors, result.Report.FirstErr)
	}
	if result.CacheMismatches > 0 {
		return result, fmt.Errorf("gate selftest: %d cache consistency mismatches", result.CacheMismatches)
	}
	if result.CacheHits == 0 {
		return result, fmt.Errorf("gate selftest: hot-query phase produced no cache hits; the consistency gate proved nothing")
	}
	if result.Restarts == 0 {
		return result, fmt.Errorf("gate selftest: no rolling restart completed mid-run; lengthen the run or shorten RestartEvery")
	}
	return result, nil
}

// hammerHotQueries issues a small fixed set of dist batches repeatedly
// so identical bodies hit the gate's answer cache, verifying every
// response against the serial tree.
func hammerHotQueries(gateURL, tree string, verify *hst.Tree, seed uint64) error {
	client := &http.Client{Timeout: 10 * time.Second}
	n := verify.NumPoints()
	r := rng.NewHashed(seed, 0x607Ab1e5)
	hot := make([]serve.DistRequest, 8)
	for qi := range hot {
		pairs := make([][2]int, 4)
		for j := range pairs {
			pairs[j] = [2]int{r.Intn(n), r.Intn(n)}
		}
		hot[qi] = serve.DistRequest{Tree: tree, Pairs: pairs}
	}
	for rep := 0; rep < 40; rep++ {
		for qi, req := range hot {
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			httpResp, err := client.Post(gateURL+"/v1/dist", "application/json", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("gate selftest: hot query %d rep %d: %w", qi, rep, err)
			}
			var resp serve.DistResponse
			err = json.NewDecoder(httpResp.Body).Decode(&resp)
			httpResp.Body.Close()
			if err != nil || httpResp.StatusCode != http.StatusOK {
				return fmt.Errorf("gate selftest: hot query %d rep %d: HTTP %d (%v)", qi, rep, httpResp.StatusCode, err)
			}
			for j, p := range req.Pairs {
				if want := verify.Dist(p[0], p[1]); resp.Dists[j] != want {
					return fmt.Errorf("gate selftest: hot query %d rep %d: dist(%d,%d) = %v, want %v (not bit-identical)",
						qi, rep, p[0], p[1], resp.Dists[j], want)
				}
			}
		}
	}
	return nil
}
