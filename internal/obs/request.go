// The request wrapper shared by the serving tiers (treegate and
// treeserve). One Requests value per server wraps every API endpoint
// with the same cross-cutting concerns:
//
//   - a request id: the client's X-Request-ID is honored, otherwise one
//     is generated; either way it is echoed on the response;
//   - head-sampled tracing: a root span "<family> <endpoint>" continuing
//     any propagated traceparent, finished with the answered status;
//   - the method check: a request with the wrong method is answered 405
//     before the handler runs;
//   - metering: <family>_requests_total, <family>_errors_total{class},
//     and <family>_request_seconds with its latency Objective;
//   - the body limit and the access log: one "request" record per
//     request, at Warn when it took longer than the objective (SLOTarget)
//     and at Info otherwise.
//
// WriteJSON and WriteError write every JSON answer and error of both
// tiers.
//
// Handlers read the request id and the root span from the request
// context (RequestIDFromContext, SpanFromContext). With tracing off the
// wrapper's only tracing cost is one atomic tracer load.
package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// RequestsConfig configures a Requests wrapper.
type RequestsConfig struct {
	// Family prefixes the series and names the root spans ("gate",
	// "serve").
	Family string
	// Help is the subject of the series' help text ("Gate API" gives
	// "Gate API requests received.").
	Help string
	// Registry is the metrics sink; nil = unmetered.
	Registry *Registry
	// SLOTarget is the per-request latency objective (0 = quantile
	// gauges only). Requests over it count as breaches and are logged
	// at Warn.
	SLOTarget time.Duration
	// MaxBodyBytes caps request bodies.
	MaxBodyBytes int64
	// Tracer enables per-request tracing; nil = off.
	Tracer *Tracer
	// Logger, when non-nil, gets one access record per request.
	Logger *slog.Logger
}

// requestLatencyBuckets spans 100µs–25s in powers of ~5 — wide enough
// for a leaf-cache-hot dist batch and a cold multi-megabyte EMD alike.
var requestLatencyBuckets = []float64{1e-4, 5e-4, 2.5e-3, 1.25e-2, 6.25e-2, 0.3125, 1.5625, 7.8125, 25}

// Requests wraps a server's API endpoints; see the file comment.
type Requests struct {
	cfg     RequestsConfig
	tracer  atomic.Pointer[Tracer] // nil = tracing disabled
	startID string                 // request-id prefix, unique per server start
	seq     atomic.Uint64          // request-id sequence
}

// NewRequests builds the wrapper for one server.
func NewRequests(cfg RequestsConfig) *Requests {
	q := &Requests{cfg: cfg, startID: strconv.FormatInt(time.Now().UnixNano(), 36)}
	if cfg.Tracer != nil {
		q.tracer.Store(cfg.Tracer)
	}
	return q
}

// requestKey finds a request's requestContext among context values.
type requestKey struct{}

// requestContext is what the wrapper attaches to each request's
// context: the request id and, when sampled, the root span.
type requestContext struct {
	context.Context
	id   string
	span *Span
}

func (c *requestContext) Value(key any) any {
	if key == (requestKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// SpanFromContext returns the request's root span, or nil (safe for
// every Span method) when the request is untraced.
func SpanFromContext(ctx context.Context) *Span {
	if rc, ok := ctx.Value(requestKey{}).(*requestContext); ok {
		return rc.span
	}
	return nil
}

// RequestIDFromContext returns the request's id, or "" outside the
// wrapper.
func RequestIDFromContext(ctx context.Context) string {
	if rc, ok := ctx.Value(requestKey{}).(*requestContext); ok {
		return rc.id
	}
	return ""
}

// inflight is one request's state: one allocation holds both the
// status-recording writer and the context handlers read.
type inflight struct {
	w   statusWriter
	ctx requestContext
}

// statusWriter records the status code a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// WriteJSON answers v as JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers a structured JSON error: {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// Wrap builds the handler for one endpoint, which answers only method;
// any other method gets 405 without fn running.
func (q *Requests) Wrap(endpoint, method string, fn http.HandlerFunc) http.HandlerFunc {
	fam, reg := q.cfg.Family, q.cfg.Registry
	var requests, errors4xx, errors5xx *Counter
	var objective *Objective
	if reg != nil {
		requests = reg.Counter(fam+"_requests_total", q.cfg.Help+" requests received.", "endpoint", endpoint)
		errors4xx = reg.Counter(fam+"_errors_total", q.cfg.Help+" requests answered with an error status.", "endpoint", endpoint, "class", "4xx")
		errors5xx = reg.Counter(fam+"_errors_total", q.cfg.Help+" requests answered with an error status.", "endpoint", endpoint, "class", "5xx")
		latency := reg.Histogram(fam+"_request_seconds", q.cfg.Help+" request latency in seconds.", requestLatencyBuckets, "endpoint", endpoint)
		objective = NewObjective(reg, fam, endpoint, latency, q.cfg.SLOTarget.Seconds())
	}
	rootName := fam + " " + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st := &inflight{w: statusWriter{ResponseWriter: w}}
		st.ctx = requestContext{Context: r.Context(), id: r.Header.Get(RequestIDHeader)}
		if st.ctx.id == "" {
			st.ctx.id = q.startID + "-" + strconv.FormatUint(q.seq.Add(1), 10)
		}
		w.Header().Set(RequestIDHeader, st.ctx.id)
		// Tracing: the disabled path is exactly this one atomic load.
		tr := q.tracer.Load()
		if tr != nil {
			parent, _ := ParseTraceParent(r.Header.Get(TraceParentHeader))
			st.ctx.span = tr.StartRequest(parent, rootName)
		}
		if reg != nil {
			requests.Inc()
		}
		r = r.WithContext(&st.ctx)
		r.Body = http.MaxBytesReader(w, r.Body, q.cfg.MaxBodyBytes)
		if r.Method == method {
			fn(&st.w, r)
		} else {
			WriteError(&st.w, http.StatusMethodNotAllowed, r.URL.Path+" requires "+method)
		}

		status := st.w.status
		if status == 0 {
			status = http.StatusOK
		}
		if reg != nil && status >= 500 {
			errors5xx.Inc()
		} else if reg != nil && status >= 400 {
			errors4xx.Inc()
		}
		d := time.Since(start)
		objective.Observe(d.Seconds())
		span := st.ctx.span
		if span != nil {
			span.Add("status", int64(status))
			tr.Finish(span)
		}
		if q.cfg.Logger != nil {
			attrs := []any{
				"request_id", st.ctx.id, "endpoint", endpoint,
				"method", r.Method, "path", r.URL.Path,
				"status", status,
				"duration_ms", float64(d.Microseconds()) / 1000,
				"remote", r.RemoteAddr}
			if span != nil {
				attrs = append(attrs, "trace_id", span.Context().TraceIDString())
			}
			level := slog.LevelInfo
			if q.cfg.SLOTarget > 0 && d > q.cfg.SLOTarget {
				level = slog.LevelWarn
			}
			q.cfg.Logger.Log(context.Background(), level, "request", attrs...)
		}
	}
}
