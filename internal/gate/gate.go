// Package gate is treegate's engine: an HTTP front tier that spreads
// tree-metric queries across a fleet of treeserve replicas. It layers,
// bottom to top:
//
//   - a consistent-hash Ring (ring.go) that gives every query a
//     deterministic owner replica and failover order;
//   - replica health tracking (health.go) fed by background polls of
//     GET /v1/trees and by forward-path failures, including a manifest
//     version coherence view across the fleet;
//   - per-request retry with the deterministic jittered exponential
//     backoff idiom from internal/mpcnet — a failed attempt walks the
//     preference list, and full sweeps back off before retrying, so a
//     rolling replica restart is absorbed without client-visible errors;
//   - a bounded deterministic LRU answer cache (cache.go) for hot
//     dist/knn requests keyed by (tree, content fingerprint, body) —
//     hits are the replica's bytes verbatim and can never cross a
//     generation;
//   - ensemble fan-out: a dist query against a configured ensemble name
//     queries its k independently-seeded member trees and answers the
//     elementwise min, folded serially in member order so the result is
//     bit-identical to a serial min at any fan-out width.
//
// Everything is metered on gate_* series (see docs/OBSERVABILITY.md).
package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
	"mpctree/internal/serve"
)

// Options configures a Gateway.
type Options struct {
	// Backends are the treeserve replica base URLs (http://host:port).
	Backends []string
	// Ensembles maps an ensemble name to its member tree names. A dist
	// query naming an ensemble fans across the members and answers the
	// elementwise min distance.
	Ensembles map[string][]string
	// CacheSize bounds the answer cache in entries (0 = 4096, <0 = off).
	CacheSize int
	// CacheCheckEvery, when > 0, re-forwards every Nth cache hit to the
	// backend and compares bytes, counting any disagreement on
	// gate_cache_mismatch_total, which must stay 0.
	CacheCheckEvery int
	// Retry is the per-request retry/backoff policy (mpcnet idiom:
	// deterministic jitter from (Seed, request seq, attempt)). Its
	// MaxAttempts bounds full sweeps over the preference list.
	Retry mpcnet.RetryPolicy
	// HealthInterval paces the background /v1/trees polls (0 = 1s).
	HealthInterval time.Duration
	// Timeout bounds one backend HTTP attempt (0 = 30s).
	Timeout time.Duration
	// Obs is the metrics sink; nil = unmetered.
	Obs *obs.Registry
	// Logger, if non-nil, logs health transitions, request errors, and
	// one structured access-log record per request (with the request id
	// and, when sampled, the trace id) — at Warn when the request took
	// longer than SLOTarget, at Info otherwise.
	Logger *slog.Logger
	// Tracer, if non-nil, enables per-request span tracing: a sampled
	// request gets a root span ("gate <endpoint>") with route,
	// cache_lookup, per-attempt forward, and ensemble_fold children; each
	// forward attempt's context propagates to the replica via traceparent,
	// so the replica's root records the attempt as its parent_span.
	// Write-only: responses are bit-identical with tracing on or off, and
	// a nil tracer costs one atomic pointer load.
	Tracer *obs.Tracer
	// SLOTarget is the per-request latency objective: requests over it
	// burn gate_slo_breaches_total and are logged at Warn, and the bound
	// is published as gate_latency_objective_seconds. 0 publishes
	// quantile gauges only.
	SLOTarget time.Duration
}

// maxBodyBytes caps inbound request bodies.
const maxBodyBytes = 8 << 20

// idlePerReplica is how many idle connections the gate keeps to each
// replica: one per concurrent forward. With http.DefaultTransport's 2,
// any more concurrent forwards than that dial a connection each and
// close it after.
const idlePerReplica = 64

// Gateway fronts a fleet of treeserve replicas.
type Gateway struct {
	ring      *Ring
	backends  []*backendState
	byURL     map[string]*backendState
	ensembles map[string][]string
	cache     *Cache
	checkN    int
	retry     mpcnet.RetryPolicy
	rounds    int
	interval  time.Duration
	client    *http.Client
	logger    *slog.Logger
	requests  *obs.Requests // method check, request id, tracing, metering, body limit, logs

	seq      atomic.Uint64 // request sequence, feeds backoff jitter
	hitSeq   atomic.Uint64 // cache hits, drives the every-Nth double-check
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	reg             *obs.Registry
	replicasHealthy *obs.Gauge
	replicaCoherent *obs.Gauge
	versionSkew     *obs.Counter
	cacheMismatch   *obs.Counter
	ensembleReqs    *obs.Counter
}

// New builds a Gateway over the configured replica fleet. Call Start to
// begin health polling and Stop to halt it.
func New(opts Options) (*Gateway, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("gate: no backends configured")
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 4096
	}
	interval := opts.HealthInterval
	if interval <= 0 {
		interval = time.Second
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	rounds := opts.Retry.MaxAttempts
	if rounds <= 0 {
		rounds = 4
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = idlePerReplica
	g := &Gateway{
		ring:      NewRing(opts.Backends),
		byURL:     make(map[string]*backendState, len(opts.Backends)),
		ensembles: opts.Ensembles,
		cache:     NewCache(cacheSize, opts.Obs),
		checkN:    opts.CacheCheckEvery,
		retry:     opts.Retry,
		rounds:    rounds,
		interval:  interval,
		client:    &http.Client{Timeout: timeout, Transport: transport},
		logger:    opts.Logger,
		requests: obs.NewRequests(obs.RequestsConfig{Family: "gate", Help: "Gate API",
			Registry: opts.Obs, SLOTarget: opts.SLOTarget,
			MaxBodyBytes: maxBodyBytes, Tracer: opts.Tracer, Logger: opts.Logger}),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		reg:  opts.Obs,
	}
	for _, url := range opts.Backends {
		if _, dup := g.byURL[url]; dup {
			return nil, fmt.Errorf("gate: duplicate backend %q", url)
		}
		b := &backendState{url: url}
		g.backends = append(g.backends, b)
		g.byURL[url] = b
	}
	for name, members := range g.ensembles {
		if name == "" || len(members) == 0 {
			return nil, fmt.Errorf("gate: ensemble %q has no members", name)
		}
	}
	if g.reg != nil {
		g.replicasHealthy = g.reg.Gauge("gate_replicas_healthy", "Backends currently answering health polls.")
		g.replicaCoherent = g.reg.Gauge("gate_replica_coherent", "1 when every healthy replica serves every store-versioned tree at the same manifest version.")
		g.versionSkew = g.reg.Counter("gate_version_skew_total", "Health polls that found replicas disagreeing on a tree's manifest version.")
		g.cacheMismatch = g.reg.Counter("gate_cache_mismatch_total", "Cache consistency double-checks where the cached bytes differed from the live backend answer at the same fingerprint (must stay 0).")
		g.ensembleReqs = g.reg.Counter("gate_ensemble_requests_total", "Dist requests answered by ensemble fan-out.")
	}
	return g, nil
}

// setReplicaHealth updates the labelled per-backend health gauge.
func (g *Gateway) setReplicaHealth(url string, up bool) {
	if g.reg == nil {
		return
	}
	v := 0.0
	if up {
		v = 1
	}
	g.reg.Gauge("gate_replica_healthy", "1 when the labelled backend is answering, 0 when it is failed out.", "backend", url).Set(v)
}

// Start primes every backend with one synchronous poll (so routing has
// a health view before the first request) and launches the background
// poller.
func (g *Gateway) Start() {
	g.poll()
	go func() {
		defer close(g.done)
		t := time.NewTicker(g.interval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.poll()
			}
		}
	}()
}

// Stop halts the health poller and closes the idle replica connections.
// Safe to call more than once.
func (g *Gateway) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
	g.client.CloseIdleConnections()
}

// prefer returns the ring's preference list for key with healthy
// backends moved to the front (stable within each class), so failed
// replicas are only tried as a last resort.
func (g *Gateway) prefer(key string) []*backendState {
	urls := g.ring.Prefer(key)
	out := make([]*backendState, 0, len(urls))
	for _, u := range urls {
		if b := g.byURL[u]; b.healthy.Load() {
			out = append(out, b)
		}
	}
	for _, u := range urls {
		if b := g.byURL[u]; !b.healthy.Load() {
			out = append(out, b)
		}
	}
	return out
}

// fwdResult is one backend's complete answer.
type fwdResult struct {
	status  int
	body    []byte
	backend string
}

// tryBackend issues one attempt against one backend, propagating the
// request id and — when the request is sampled — a traceparent naming
// the gate's attempt span as parent, so the replica's root span records
// this attempt as its parent_span.
func (g *Gateway) tryBackend(b *backendState, path string, body []byte, reqID string, attempt *obs.Span) (*fwdResult, error) {
	req, err := http.NewRequest(http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	if attempt != nil {
		req.Header.Set(obs.TraceParentHeader, attempt.Context().HeaderValue())
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &fwdResult{status: resp.StatusCode, body: data, backend: b.url}, nil
}

// forward routes one request through the preference list with the
// mpcnet retry ladder: walk every backend once per round (transport
// errors and 5xx advance to the next backend and mark the failed one
// unhealthy), back off between rounds with deterministic jitter, give
// up after rounds sweeps. 4xx answers are the client's problem and
// return immediately. Attempt spans open under sp (nil = untraced).
func (g *Gateway) forward(path string, prefs []*backendState, body []byte, reqID string, sp *obs.Span) (*fwdResult, error) {
	seq := g.seq.Add(1)
	var lastErr error
	for round := 0; round < g.rounds; round++ {
		if round > 0 {
			g.retry.Wait(g.retry.Backoff(seq, round-1))
		}
		for _, b := range prefs {
			if g.reg != nil {
				g.reg.Counter("gate_backend_requests_total", "Requests attempted against the labelled backend.", "backend", b.url).Inc()
			}
			// One span per attempt: the backend in the name, the
			// retry/failover outcome in the metrics (round, failed,
			// status). The replica's root names this span as its parent.
			asp := sp.Child("forward " + b.url)
			asp.Add("round", int64(round))
			res, err := g.tryBackend(b, path, body, reqID, asp)
			if err != nil {
				asp.Add("failed", 1)
				asp.End()
				lastErr = fmt.Errorf("%s: %w", b.url, err)
				g.markUnhealthy(b, err)
				g.countBackendError(b.url)
				continue
			}
			if res.status >= 500 {
				asp.Add("failed", 1)
				asp.Add("status", int64(res.status))
				asp.End()
				lastErr = fmt.Errorf("%s: HTTP %d: %s", b.url, res.status, bytes.TrimSpace(res.body))
				g.countBackendError(b.url)
				continue
			}
			asp.Add("status", int64(res.status))
			asp.End()
			return res, nil
		}
		if g.reg != nil {
			g.reg.Counter("gate_retries_total", "Full preference-list sweeps that failed and backed off.").Inc()
		}
	}
	return nil, fmt.Errorf("gate: all %d backends failed after %d rounds: %w", len(prefs), g.rounds, lastErr)
}

func (g *Gateway) countBackendError(url string) {
	if g.reg != nil {
		g.reg.Counter("gate_backend_errors_total", "Failed attempts (transport error or 5xx) against the labelled backend.", "backend", url).Inc()
	}
}

// ---- HTTP surface ----

// RegisterMux mounts the gate API. The query endpoints mirror
// treeserve's /v1 surface, so clients work unchanged against a gate.
func (g *Gateway) RegisterMux(mux *http.ServeMux) {
	wrap := g.requests.Wrap
	const get, post = http.MethodGet, http.MethodPost
	mux.HandleFunc("/v1/dist", wrap("dist", post, g.handleDist))
	mux.HandleFunc("/v1/knn", wrap("knn", post, g.handleKNN))
	mux.HandleFunc("/v1/cut", wrap("cut", post, g.handleForward("/v1/cut")))
	mux.HandleFunc("/v1/emd", wrap("emd", post, g.handleForward("/v1/emd")))
	mux.HandleFunc("/v1/medoid", wrap("medoid", post, g.handleForward("/v1/medoid")))
	mux.HandleFunc("/v1/trees", wrap("trees", get, g.handleTrees))
	mux.HandleFunc("/v1/trees/reload", wrap("reload", post, g.handleReload))
	mux.HandleFunc("/v1/ensembles", wrap("ensembles", get, g.handleEnsembles))
	mux.HandleFunc("/v1/quality", wrap("quality", get, g.handleQuality))
	mux.HandleFunc("/v1/status", wrap("status", get, g.handleStatus))
}

// writeRaw relays a backend answer (or cached bytes) verbatim.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// readBody slurps the (limited) request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		obs.WriteError(w, http.StatusRequestEntityTooLarge, "reading body: "+err.Error())
		return nil, false
	}
	return body, true
}

// routeKey is the ring key for one request: the tree plus the exact
// body, so identical hot queries land on the same replica (cache
// affinity) while distinct queries spread.
func routeKey(endpoint, tree string, body []byte) string {
	return endpoint + "\x00" + tree + "\x00" + strconv.FormatUint(hashKey(string(body)), 16)
}

// cacheKey binds an answer to tree content: fingerprint changes on
// every reload (generation) or version push, so stale hits cannot
// happen by construction.
func cacheKey(endpoint, tree, fp string, body []byte) string {
	return endpoint + "\x00" + tree + "\x00" + fp + "\x00" + string(body)
}

// bodyTree reads a query body's tree name, and nothing else of it; a
// body it cannot read names no tree, and the replica judges it.
func bodyTree(body []byte) string {
	var peek struct {
		Tree string `json:"tree"`
	}
	_ = json.Unmarshal(body, &peek)
	return peek.Tree
}

// handleForward proxies an uncached endpoint (cut, emd, medoid),
// routing by tree name + body.
func (g *Gateway) handleForward(path string) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		sp := obs.SpanFromContext(r.Context())
		rsp := sp.Child("route")
		prefs := g.prefer(routeKey(path, bodyTree(body), body))
		rsp.Add("backends", int64(len(prefs)))
		rsp.End()
		res, err := g.forward(path, prefs, body, obs.RequestIDFromContext(r.Context()), sp)
		if err != nil {
			obs.WriteError(w, http.StatusBadGateway, err.Error())
			return
		}
		writeRaw(w, res.status, res.body)
	}
}

// forwardCached answers one dist/knn request through the answer cache:
// look up under the owner replica's current fingerprint, else forward
// and fill under the fingerprint the response reports. Every Nth hit is
// double-checked against the live backend. Spans open under sp.
func (g *Gateway) forwardCached(w http.ResponseWriter, endpoint, tree string, body []byte, reqID string, sp *obs.Span) {
	path := "/v1/" + endpoint
	rsp := sp.Child("route")
	prefs := g.prefer(routeKey(endpoint, tree, body))
	rsp.Add("backends", int64(len(prefs)))
	rsp.End()
	if len(prefs) == 0 {
		obs.WriteError(w, http.StatusBadGateway, "gate: no backends")
		return
	}
	var key string
	if ti, ok := prefs[0].tree(tree); ok {
		key = cacheKey(endpoint, tree, fingerprint(prefs[0].url, ti.Version, ti.Generation), body)
		csp := sp.Child("cache_lookup")
		data, hit := g.cache.Get(key)
		if hit {
			csp.Add("hit", 1)
		}
		csp.End()
		if hit {
			if g.checkN > 0 && g.hitSeq.Add(1)%uint64(g.checkN) == 0 {
				dsp := sp.Child("cache_doublecheck")
				g.doubleCheck(endpoint, tree, key, data, prefs, body, reqID, dsp)
				dsp.End()
			}
			w.Header().Set("X-Gate-Cache", "hit")
			writeRaw(w, http.StatusOK, data)
			return
		}
	}
	res, err := g.forward(path, prefs, body, reqID, sp)
	if err != nil {
		obs.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	if res.status == http.StatusOK {
		if ver, gen, ok := responseSnapshot(res); ok {
			g.noteSnapshot(res.backend, tree, ver, gen)
			g.cache.Put(cacheKey(endpoint, tree, fingerprint(res.backend, ver, gen), body), res.body)
		}
	}
	writeRaw(w, res.status, res.body)
}

// responseSnapshot extracts the answering snapshot's (version,
// generation) from a dist/knn response body.
func responseSnapshot(res *fwdResult) (version, generation int64, ok bool) {
	var meta struct {
		Generation int64 `json:"generation"`
		Version    int64 `json:"version"`
	}
	if err := json.Unmarshal(res.body, &meta); err != nil || meta.Generation == 0 {
		return 0, 0, false
	}
	return meta.Version, meta.Generation, true
}

// noteSnapshot records a response-observed snapshot on its backend so
// the next cache lookup keys at the live generation instead of waiting
// for the health poller to catch up.
func (g *Gateway) noteSnapshot(backend, tree string, version, generation int64) {
	if b, ok := g.byURL[backend]; ok {
		b.noteSnapshot(tree, version, generation)
	}
}

// doubleCheck re-forwards a cache hit and compares bytes when the live
// answer carries the same fingerprint. Any disagreement is counted on
// gate_cache_mismatch_total and the entry is dropped — the counter
// staying at zero under sustained load is the cache-consistency proof.
func (g *Gateway) doubleCheck(endpoint, tree, key string, cached []byte, prefs []*backendState, body []byte, reqID string, sp *obs.Span) {
	res, err := g.forward("/v1/"+endpoint, prefs, body, reqID, sp)
	if err != nil || res.status != http.StatusOK {
		return
	}
	ver, gen, ok := responseSnapshot(res)
	if !ok {
		return
	}
	// Record what the backend is serving now even when the comparison
	// is off: if a reload landed since the entry was cached, this moves
	// lookups off the stale generation without waiting for a poll.
	g.noteSnapshot(res.backend, tree, ver, gen)
	if cacheKey(endpoint, tree, fingerprint(res.backend, ver, gen), body) != key {
		return // answered at a different generation; not comparable
	}
	if !bytes.Equal(cached, res.body) {
		if g.cacheMismatch != nil {
			g.cacheMismatch.Inc()
		}
		if g.logger != nil {
			g.logger.Error("cache_mismatch", "endpoint", endpoint, "tree", tree)
		}
		g.cache.Drop(key)
	}
}

// handleDist answers /v1/dist: ensemble names fan across members and
// fold the elementwise min; plain names go through the cache. Only an
// ensemble body is decoded whole; a plain-tree body is read for its
// tree and forwarded as is, so the replica judges it.
func (g *Gateway) handleDist(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	tree := bodyTree(body)
	ctx := r.Context()
	if members, isEnsemble := g.ensembles[tree]; isEnsemble {
		var req serve.DistRequest
		if err := json.Unmarshal(body, &req); err != nil {
			obs.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		g.handleEnsembleDist(w, req, members, obs.RequestIDFromContext(ctx), obs.SpanFromContext(ctx))
		return
	}
	g.forwardCached(w, "dist", tree, body, obs.RequestIDFromContext(ctx), obs.SpanFromContext(ctx))
}

// handleKNN answers /v1/knn through the cache. Ensemble names are
// rejected: a min over neighbor lists has no single-tree semantics.
func (g *Gateway) handleKNN(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	tree := bodyTree(body)
	if _, isEnsemble := g.ensembles[tree]; isEnsemble {
		obs.WriteError(w, http.StatusBadRequest, fmt.Sprintf("%q is an ensemble; knn requires a concrete tree", tree))
		return
	}
	g.forwardCached(w, "knn", tree, body, obs.RequestIDFromContext(r.Context()), obs.SpanFromContext(r.Context()))
}

// handleEnsembleDist fans one dist request across the ensemble's member
// trees concurrently (each member routed and cached independently) and
// folds the elementwise min serially in member order — bit-identical to
// querying the members one by one.
func (g *Gateway) handleEnsembleDist(w http.ResponseWriter, req serve.DistRequest, members []string, reqID string, sp *obs.Span) {
	if g.ensembleReqs != nil {
		g.ensembleReqs.Inc()
	}
	// Member forwards nest under one fold span so the timeline shows the
	// fan-out width and the serial fold as a single unit.
	fsp := sp.Child("ensemble_fold")
	fsp.Add("members", int64(len(members)))
	defer fsp.End()
	type memberResult struct {
		resp   serve.DistResponse
		status int
		body   []byte
		err    error
	}
	results := make([]memberResult, len(members))
	var wg sync.WaitGroup
	for i, member := range members {
		wg.Add(1)
		go func(i int, member string) {
			defer wg.Done()
			mreq := req
			mreq.Tree = member
			mbody, err := json.Marshal(mreq)
			if err != nil {
				results[i].err = err
				return
			}
			rec := newRecorder()
			g.forwardCached(rec, "dist", member, mbody, reqID, fsp)
			results[i].status = rec.code
			results[i].body = rec.buf.Bytes()
			if rec.code == http.StatusOK {
				results[i].err = json.Unmarshal(rec.buf.Bytes(), &results[i].resp)
			}
		}(i, member)
	}
	wg.Wait()
	// Serial fold in member order: min is order-independent over finite
	// float64s, but folding deterministically keeps even NaN-adjacent
	// corner cases reproducible.
	var min []float64
	for i, member := range members {
		res := results[i]
		if res.err != nil {
			obs.WriteError(w, http.StatusBadGateway, fmt.Sprintf("ensemble member %q: %v", member, res.err))
			return
		}
		if res.status != http.StatusOK {
			writeRaw(w, res.status, res.body)
			return
		}
		if min == nil {
			min = append([]float64(nil), res.resp.Dists...)
			continue
		}
		if len(res.resp.Dists) != len(min) {
			obs.WriteError(w, http.StatusBadGateway, fmt.Sprintf("ensemble member %q answered %d dists, want %d", member, len(res.resp.Dists), len(min)))
			return
		}
		for j, d := range res.resp.Dists {
			if d < min[j] {
				min[j] = d
			}
		}
	}
	obs.WriteJSON(w, http.StatusOK, serve.DistResponse{Tree: req.Tree, Dists: min})
}

// recorder captures a handler's response for in-process composition
// (the ensemble path reuses forwardCached per member).
type recorder struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header), code: http.StatusOK} }

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(code int) {
	r.code = code
}
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }

// handleTrees reports the gate's merged fleet view, shape-compatible
// with treeserve's /v1/trees.
func (g *Gateway) handleTrees(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, serve.TreesResponse{Trees: g.mergedTrees()})
}

// handleEnsembles lists the configured ensembles.
func (g *Gateway) handleEnsembles(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, len(g.ensembles))
	for name := range g.ensembles {
		names = append(names, name)
	}
	sort.Strings(names)
	type ens struct {
		Name    string   `json:"name"`
		Members []string `json:"members"`
	}
	out := struct {
		Ensembles []ens `json:"ensembles"`
	}{Ensembles: []ens{}}
	for _, name := range names {
		out.Ensembles = append(out.Ensembles, ens{Name: name, Members: g.ensembles[name]})
	}
	obs.WriteJSON(w, http.StatusOK, out)
}

// handleReload broadcasts a hot reload to every healthy replica, so a
// version push in the store rolls across the fleet in one call.
func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	reqID := obs.RequestIDFromContext(r.Context())
	var success, failure *fwdResult
	for _, b := range g.backends {
		if !b.healthy.Load() {
			continue
		}
		res, err := g.tryBackend(b, "/v1/trees/reload", body, reqID, nil)
		if err != nil {
			g.markUnhealthy(b, err)
			g.countBackendError(b.url)
			continue
		}
		if res.status == http.StatusOK {
			success = res
			// The reload response reports the post-reload TreeInfo;
			// fold it straight into the replica's table so cache
			// lookups key at the new generation immediately instead
			// of hitting pre-reload entries until the next poll.
			var rr serve.ReloadResponse
			if err := json.Unmarshal(res.body, &rr); err == nil && rr.Tree.Name != "" {
				b.noteTree(rr.Tree)
			}
		} else if failure == nil {
			failure = res
		}
	}
	switch {
	case success != nil:
		writeRaw(w, success.status, success.body)
	case failure != nil:
		writeRaw(w, failure.status, failure.body)
	default:
		obs.WriteError(w, http.StatusServiceUnavailable, "gate: no healthy backends to reload")
	}
}

// handleQuality relays the quality listing of the replica fetchQuality
// picks, status and body verbatim.
func (g *Gateway) handleQuality(w http.ResponseWriter, r *http.Request) {
	res := g.fetchQuality(r.URL.RawQuery, obs.RequestIDFromContext(r.Context()))
	if res == nil {
		obs.WriteError(w, http.StatusServiceUnavailable, "gate: no healthy backends")
		return
	}
	writeRaw(w, res.status, res.body)
}

// fetchQuality reads GET /v1/quality?query from the first healthy
// replica that answers (audit state is per-replica; any healthy one is
// representative), marking a replica that fails at the transport level
// unhealthy. nil when no healthy replica answered.
func (g *Gateway) fetchQuality(query, reqID string) *fwdResult {
	for _, b := range g.backends {
		if !b.healthy.Load() {
			continue
		}
		req, err := http.NewRequest(http.MethodGet, b.url+"/v1/quality?"+query, nil)
		if err != nil {
			continue
		}
		if reqID != "" {
			req.Header.Set(obs.RequestIDHeader, reqID)
		}
		resp, err := g.client.Do(req)
		if err != nil {
			g.markUnhealthy(b, err)
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		return &fwdResult{status: resp.StatusCode, body: data, backend: b.url}
	}
	return nil
}
