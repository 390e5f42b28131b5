// The live debug server: -http on treembed/mpcbench and -obs-listen on
// mpcworker serve metrics, spans, expvar, and pprof so long runs can be
// inspected while they execute.
//
// Endpoints:
//
//	/metrics         Prometheus text exposition format
//	/metrics.json    the same snapshot as JSON
//	/trace           phase-attributed span tree (text; ?format=json for JSON)
//	/trace/requests  completed request forests (when Serve gets a buffer)
//	/healthz         build identity + uptime + series count (liveness probe)
//	/debug/vars      expvar (Go's own variables)
//	/debug/pprof/*   the standard runtime profiles
//
// The server observes; it never mutates. Scraping any endpoint at any
// frequency cannot change algorithmic output — the registry and span
// accessors take snapshots under their own locks.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// processStart anchors the uptime /healthz reports. Captured at package
// init: close enough to process start for liveness purposes.
var processStart = time.Now()

// HealthStatus is the GET /healthz response body: build identity plus
// just enough state (uptime, registry series count) for a prober to
// confirm the process is past startup — without scraping full /metrics.
type HealthStatus struct {
	Status        string  `json:"status"` // always "ok" when the process answers
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Series        int     `json:"series"` // registered metric series
}

// Health snapshots the process health document /healthz serves.
func Health(reg *Registry) HealthStatus {
	h := HealthStatus{
		Status:        "ok",
		Version:       buildVersion(),
		GoVersion:     runtime.Version(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		UptimeSeconds: time.Since(processStart).Seconds(),
	}
	if reg != nil {
		h.Series = reg.NumSeries()
	}
	return h
}

// Server is a running debug endpoint.
type Server struct {
	addr string
	srv  *http.Server
}

// RegisterDebug mounts the standard debug endpoints — /metrics,
// /metrics.json, /trace, /healthz, /debug/vars, /debug/pprof/* — on an
// existing mux, so servers with their own routes (cmd/treeserve) expose
// the same observability surface Serve does without a second listener.
// root is called per /trace request and may return nil (renders "(no
// spans)").
func RegisterDebug(mux *http.ServeMux, reg *Registry, root func() *Span) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		root := root()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			data, err := root.MarshalJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			_, _ = w.Write(append(data, '\n'))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = root.Render(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(Health(reg))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Serve starts the debug server on addr (host:port; ":0" picks a free
// port) exporting reg, the span tree rooted at root, and, at
// /trace/requests, the forests traces retains. root and traces may be
// nil; a nil traces mounts no /trace/requests.
func Serve(addr string, reg *Registry, root *Span, traces *TraceBuffer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	RegisterDebug(mux, reg, func() *Span { return root })
	index := "mpctree observability\n\n/metrics\n/metrics.json\n/trace (?format=json)\n/healthz\n/debug/vars\n/debug/pprof/\n"
	if traces != nil {
		RegisterRequestTraces(mux, traces)
		index += "/trace/requests\n"
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, index)
	})

	s := &Server{addr: ln.Addr().String(), srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.addr }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
