// The HTTP/JSON API. Every endpoint is a POST (except the GET tree
// listing) taking a small JSON document naming a tree; batch-shaped
// requests (dist pairs, knn points) fan out through internal/par, so a
// 10k-pair batch uses every core while staying bit-identical to a
// serial loop at any worker count (each shard writes only its own
// output slots). Handlers run under a per-request deadline with bounded
// request bodies, answer structured JSON errors, and meter themselves
// onto an obs.Registry.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	"mpctree/internal/hst"
	"mpctree/internal/obs"
	"mpctree/internal/par"
)

// Options configures a Server. The zero value serves with GOMAXPROCS
// workers, a 30s deadline, and a 8 MiB body limit, unmetered.
type Options struct {
	Workers      int           // par fan-out width; 0 = GOMAXPROCS
	Deadline     time.Duration // per-request wall budget; 0 = 30s, <0 = none
	MaxBodyBytes int64         // request body cap; 0 = 8 MiB
	MaxBatch     int           // max items (pairs, points) per batch request; 0 = 1<<20
	Obs          *obs.Registry // metrics sink; nil = unmetered
	// Logger, if non-nil, emits one structured access-log record per
	// /v1/* request with a request id (honoring an incoming
	// X-Request-ID, else generated and echoed back in the response
	// header), the endpoint span name, method, path, status, duration,
	// and remote address.
	Logger *slog.Logger
	// Tracer, if non-nil, enables per-request span tracing: a sampled
	// request gets a root span ("serve <endpoint>") with decode,
	// registry_snapshot, compute_*, and encode children, continuing a
	// propagated traceparent context (the gate's) when one arrives, so
	// the root records the caller's span as its parent_span. Tracing is
	// write-only — responses are bit-identical with it on or off — and a
	// nil tracer costs the hot path one atomic pointer load.
	Tracer *obs.Tracer
	// SlowLog, if non-nil, emits a sampled structured record for
	// requests over its threshold (every Nth candidate).
	SlowLog *obs.SlowLog
	// SLOTarget is the per-request latency objective: requests over it
	// burn serve_slo_breaches_total and the bound is published as
	// serve_latency_objective_seconds. 0 publishes quantile gauges only.
	SLOTarget time.Duration
}

// Server answers tree-metric queries from a Registry.
type Server struct {
	trees    *Registry
	workers  int
	deadline time.Duration
	maxBatch int

	requests *obs.Requests // request id, tracing, metering, logs
	inflight *obs.Gauge
}

// NewServer wraps a tree registry in the HTTP query API.
func NewServer(trees *Registry, opts Options) *Server {
	s := &Server{
		trees:    trees,
		workers:  par.Workers(opts.Workers),
		deadline: opts.Deadline,
		maxBatch: opts.MaxBatch,
	}
	if s.deadline == 0 {
		s.deadline = 30 * time.Second
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 8 << 20
	}
	if s.maxBatch <= 0 {
		s.maxBatch = 1 << 20
	}
	s.requests = obs.NewRequests(obs.RequestsConfig{Family: "serve", Help: "API",
		Registry: opts.Obs, SLOTarget: opts.SLOTarget,
		MaxBodyBytes: maxBody, Tracer: opts.Tracer, SlowLog: opts.SlowLog, Logger: opts.Logger})
	if opts.Obs != nil {
		s.inflight = opts.Obs.Gauge("serve_inflight_requests", "Requests currently executing.")
	}
	return s
}

// RegisterMux mounts the /v1 API on mux.
func (s *Server) RegisterMux(mux *http.ServeMux) {
	mux.HandleFunc("/v1/dist", s.endpoint("dist", http.MethodPost, s.handleDist))
	mux.HandleFunc("/v1/knn", s.endpoint("knn", http.MethodPost, s.handleKNN))
	mux.HandleFunc("/v1/cut", s.endpoint("cut", http.MethodPost, s.handleCut))
	mux.HandleFunc("/v1/emd", s.endpoint("emd", http.MethodPost, s.handleEMD))
	mux.HandleFunc("/v1/medoid", s.endpoint("medoid", http.MethodPost, s.handleMedoid))
	mux.HandleFunc("/v1/trees", s.endpoint("trees", "", s.handleTrees))
	mux.HandleFunc("/v1/trees/reload", s.endpoint("reload", http.MethodPost, s.handleReload))
	mux.HandleFunc("/v1/quality", s.endpoint("quality", http.MethodGet, s.handleQuality))
}

// apiError carries an HTTP status through the handler return path.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(err error) error {
	return &apiError{status: http.StatusNotFound, msg: err.Error()}
}

// endpoint wraps a handler with the serving concerns: the shared
// request wrapper (request id, tracing, metering, body limit, logs) plus
// the method check, per-request deadline, panic containment, and the
// in-flight gauge. The handler body runs in its own goroutine, under a
// context carrying the deadline, so a blown deadline answers 503
// immediately; the tree snapshot the stray computation holds stays valid
// regardless of reloads, so it finishes harmlessly and is discarded.
func (s *Server) endpoint(name, method string, fn func(context.Context, *http.Request) (any, error)) http.HandlerFunc {
	return s.requests.Wrap(name, func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			s.inflight.Add(1)
			defer s.inflight.Add(-1)
		}
		if method != "" && r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires %s", r.URL.Path, method))
			return
		}
		ctx := r.Context()
		if s.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.deadline)
			defer cancel()
		}
		type result struct {
			v   any
			err error
		}
		done := make(chan result, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- result{err: &apiError{status: http.StatusInternalServerError,
						msg: fmt.Sprintf("internal: %v", p)}}
				}
			}()
			v, err := fn(ctx, r)
			done <- result{v: v, err: err}
		}()
		select {
		case <-ctx.Done():
			writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("deadline exceeded after %v", s.deadline))
		case res := <-done:
			if res.err != nil {
				var ae *apiError
				if errors.As(res.err, &ae) {
					writeError(w, ae.status, ae.msg)
				} else {
					writeError(w, http.StatusInternalServerError, res.err.Error())
				}
				return
			}
			esp := obs.SpanFromContext(ctx).Child("encode")
			writeJSON(w, http.StatusOK, res.v)
			esp.End()
		}
	})
}

// writeJSON answers v as JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers a structured JSON error.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// decode unmarshals the request body into req, translating the
// MaxBytesReader overrun and JSON syntax errors into 4xx.
func decode(r *http.Request, req any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// tree resolves the named tree or answers 404.
func (s *Server) tree(name string) (*hst.Tree, error) {
	t, _, _, err := s.treeSnap(name)
	return t, err
}

// treeSnap resolves the named tree to its consistent (tree, generation,
// version) snapshot or answers 404. Handlers that echo the snapshot
// identity (dist, knn) use it so a caching front tier can key answers
// by content — store version when there is one, generation otherwise.
func (s *Server) treeSnap(name string) (*hst.Tree, int64, int64, error) {
	if name == "" {
		return nil, 0, 0, badRequest("missing \"tree\" field")
	}
	t, gen, src, err := s.trees.SnapshotSource(name)
	if err != nil {
		return nil, 0, 0, notFound(err)
	}
	return t, gen, src.Version, nil
}

// ---- /v1/dist ----

// DistRequest asks for tree distances over a batch of point-id pairs.
type DistRequest struct {
	Tree  string   `json:"tree"`
	Pairs [][2]int `json:"pairs"`
}

// DistResponse carries one distance per request pair, in order.
// Generation (and Version, when the tree comes from a versioned store)
// identifies the tree snapshot that answered — the answers are a pure
// function of (tree bytes, pairs), so any two responses with equal tree
// content and pairs are bit-identical.
type DistResponse struct {
	Tree       string    `json:"tree"`
	Generation int64     `json:"generation,omitempty"`
	Version    int64     `json:"version,omitempty"`
	Dists      []float64 `json:"dists"`
}

func (s *Server) handleDist(ctx context.Context, r *http.Request) (any, error) {
	span := obs.SpanFromContext(ctx)
	var req DistRequest
	dsp := span.Child("decode")
	err := decode(r, &req)
	dsp.End()
	if err != nil {
		return nil, err
	}
	ssp := span.Child("registry_snapshot")
	t, gen, ver, err := s.treeSnap(req.Tree)
	ssp.End()
	if err != nil {
		return nil, err
	}
	if len(req.Pairs) == 0 {
		return nil, badRequest("empty \"pairs\"")
	}
	if len(req.Pairs) > s.maxBatch {
		return nil, badRequest("%d pairs exceeds batch limit %d", len(req.Pairs), s.maxBatch)
	}
	n := t.NumPoints()
	for i, p := range req.Pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, badRequest("pair %d = [%d,%d] out of range for %d points", i, p[0], p[1], n)
		}
	}
	out := make([]float64, len(req.Pairs))
	csp := span.Child("compute_dist")
	csp.Add("pairs", int64(len(req.Pairs)))
	// The request context carries the per-request deadline: a timed-out
	// batch stops its in-flight shards instead of computing a result
	// nobody will read.
	err = par.ForCtx(ctx, s.workers, len(req.Pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.Dist(req.Pairs[i][0], req.Pairs[i][1])
		}
	})
	csp.End()
	if err != nil {
		return nil, err
	}
	return DistResponse{Tree: req.Tree, Generation: gen, Version: ver, Dists: out}, nil
}

// ---- /v1/knn ----

// KNNRequest asks for the K nearest neighbors (under the tree metric,
// excluding the query point itself) of each query point. "point" is
// shorthand for a single-element "points".
type KNNRequest struct {
	Tree   string `json:"tree"`
	Point  *int   `json:"point,omitempty"`
	Points []int  `json:"points,omitempty"`
	K      int    `json:"k"`
}

// KNNResponse carries one neighbor list per query point, in order.
// Generation and Version identify the answering tree snapshot (see
// DistResponse).
type KNNResponse struct {
	Tree       string           `json:"tree"`
	Generation int64            `json:"generation,omitempty"`
	Version    int64            `json:"version,omitempty"`
	Neighbors  [][]hst.Neighbor `json:"neighbors"`
}

func (s *Server) handleKNN(ctx context.Context, r *http.Request) (any, error) {
	span := obs.SpanFromContext(ctx)
	var req KNNRequest
	dsp := span.Child("decode")
	err := decode(r, &req)
	dsp.End()
	if err != nil {
		return nil, err
	}
	ssp := span.Child("registry_snapshot")
	t, gen, ver, err := s.treeSnap(req.Tree)
	ssp.End()
	if err != nil {
		return nil, err
	}
	points := req.Points
	if req.Point != nil {
		points = append([]int{*req.Point}, points...)
	}
	if len(points) == 0 {
		return nil, badRequest("missing \"point\" or \"points\"")
	}
	if len(points) > s.maxBatch {
		return nil, badRequest("%d points exceeds batch limit %d", len(points), s.maxBatch)
	}
	if req.K <= 0 {
		return nil, badRequest("\"k\" must be positive, got %d", req.K)
	}
	n := t.NumPoints()
	for i, p := range points {
		if p < 0 || p >= n {
			return nil, badRequest("point %d = %d out of range for %d points", i, p, n)
		}
	}
	out := make([][]hst.Neighbor, len(points))
	csp := span.Child("compute_knn")
	csp.Add("points", int64(len(points)))
	csp.Add("k", int64(req.K))
	err = par.ForCtx(ctx, s.workers, len(points), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = t.KNN(points[i], req.K)
		}
	})
	csp.End()
	if err != nil {
		return nil, err
	}
	return KNNResponse{Tree: req.Tree, Generation: gen, Version: ver, Neighbors: out}, nil
}

// ---- /v1/cut ----

// CutRequest asks for the flat clustering at a diameter scale.
type CutRequest struct {
	Tree  string  `json:"tree"`
	Scale float64 `json:"scale"`
}

// CutResponse reports the clustering: per-point labels plus sizes.
type CutResponse struct {
	Tree     string  `json:"tree"`
	Scale    float64 `json:"scale"`
	Clusters int     `json:"clusters"`
	Labels   []int   `json:"labels"`
	Sizes    []int   `json:"sizes"`
}

func (s *Server) handleCut(ctx context.Context, r *http.Request) (any, error) {
	span := obs.SpanFromContext(ctx)
	var req CutRequest
	dsp := span.Child("decode")
	err := decode(r, &req)
	dsp.End()
	if err != nil {
		return nil, err
	}
	ssp := span.Child("registry_snapshot")
	t, err := s.tree(req.Tree)
	ssp.End()
	if err != nil {
		return nil, err
	}
	if !(req.Scale > 0) || math.IsInf(req.Scale, 0) {
		return nil, badRequest("\"scale\" must be positive and finite, got %v", req.Scale)
	}
	csp := span.Child("compute_cut")
	csp.Add("points", int64(t.NumPoints()))
	labels := t.CutAtScale(req.Scale)
	csp.End()
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	return CutResponse{Tree: req.Tree, Scale: req.Scale, Clusters: k, Labels: labels, Sizes: sizes}, nil
}

// ---- /v1/emd ----

// EMDRequest asks for the Earth-Mover distance between two sparse
// measures in the "idx:mass,idx:mass" syntax treequery uses. Measures
// are normalised to total mass 1 before the flow is computed.
type EMDRequest struct {
	Tree string `json:"tree"`
	Mu   string `json:"mu"`
	Nu   string `json:"nu"`
}

// EMDResponse carries the tree-metric Earth-Mover distance.
type EMDResponse struct {
	Tree string  `json:"tree"`
	EMD  float64 `json:"emd"`
}

func (s *Server) handleEMD(ctx context.Context, r *http.Request) (any, error) {
	span := obs.SpanFromContext(ctx)
	var req EMDRequest
	dsp := span.Child("decode")
	err := decode(r, &req)
	dsp.End()
	if err != nil {
		return nil, err
	}
	ssp := span.Child("registry_snapshot")
	t, err := s.tree(req.Tree)
	ssp.End()
	if err != nil {
		return nil, err
	}
	mu, err := ParseMeasure(req.Mu, t.NumPoints())
	if err != nil {
		return nil, badRequest("mu: %v", err)
	}
	nu, err := ParseMeasure(req.Nu, t.NumPoints())
	if err != nil {
		return nil, badRequest("nu: %v", err)
	}
	csp := span.Child("compute_emd")
	emd := t.EMD(mu, nu)
	csp.End()
	return EMDResponse{Tree: req.Tree, EMD: emd}, nil
}

// ---- /v1/medoid ----

// MedoidRequest asks for the 1-median of the tree metric.
type MedoidRequest struct {
	Tree string `json:"tree"`
}

// MedoidResponse reports the medoid point and its total distance.
type MedoidResponse struct {
	Tree      string  `json:"tree"`
	Point     int     `json:"point"`
	TotalDist float64 `json:"total_dist"`
}

func (s *Server) handleMedoid(ctx context.Context, r *http.Request) (any, error) {
	span := obs.SpanFromContext(ctx)
	var req MedoidRequest
	dsp := span.Child("decode")
	err := decode(r, &req)
	dsp.End()
	if err != nil {
		return nil, err
	}
	ssp := span.Child("registry_snapshot")
	t, err := s.tree(req.Tree)
	ssp.End()
	if err != nil {
		return nil, err
	}
	csp := span.Child("compute_medoid")
	csp.Add("points", int64(t.NumPoints()))
	p, total := t.MedoidLeaf()
	csp.End()
	return MedoidResponse{Tree: req.Tree, Point: p, TotalDist: total}, nil
}

// ---- /v1/trees and /v1/trees/reload ----

// TreesResponse lists the registry.
type TreesResponse struct {
	Trees []TreeInfo `json:"trees"`
}

func (s *Server) handleTrees(_ context.Context, r *http.Request) (any, error) {
	if r.Method != http.MethodGet {
		return nil, &apiError{status: http.StatusMethodNotAllowed, msg: "/v1/trees is GET; reload via POST /v1/trees/reload"}
	}
	return TreesResponse{Trees: s.trees.List()}, nil
}

// ReloadRequest names the tree to hot-reload from its registered file.
type ReloadRequest struct {
	Tree string `json:"tree"`
}

// ReloadResponse reports the post-reload state of the tree.
type ReloadResponse struct {
	Tree TreeInfo `json:"tree"`
}

func (s *Server) handleReload(_ context.Context, r *http.Request) (any, error) {
	var req ReloadRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if req.Tree == "" {
		return nil, badRequest("missing \"tree\" field")
	}
	if err := s.trees.Reload(req.Tree); err != nil {
		return nil, badRequest("%v", err)
	}
	for _, info := range s.trees.List() {
		if info.Name == req.Tree {
			return ReloadResponse{Tree: info}, nil
		}
	}
	return nil, fmt.Errorf("tree %q vanished after reload", req.Tree)
}

// ---- /v1/quality ----

// QualityResponse lists the latest audit result per audited tree. With
// ?tree=<name> it narrows to that tree (404 for unknown names; an empty
// result list for a known tree whose first audit has not finished).
type QualityResponse struct {
	Results []QualityResult `json:"results"`
}

func (s *Server) handleQuality(_ context.Context, r *http.Request) (any, error) {
	if name := r.URL.Query().Get("tree"); name != "" {
		res, err := s.trees.Quality(name)
		if err != nil {
			return nil, notFound(err)
		}
		out := QualityResponse{Results: []QualityResult{}}
		if res != nil {
			out.Results = append(out.Results, *res)
		}
		return out, nil
	}
	results := s.trees.QualityAll()
	if results == nil {
		results = []QualityResult{}
	}
	return QualityResponse{Results: results}, nil
}
