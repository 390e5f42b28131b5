// Command treegate fronts a fleet of treeserve replicas: one HTTP
// endpoint that consistent-hashes /v1/* queries across the replicas with
// health-checked failover, fans ensemble dist queries across k
// independently-seeded trees (answering the elementwise min,
// bit-identical to a serial fold), and serves hot repeated queries from
// a bounded deterministic LRU cache keyed by tree content — a cache hit
// can never cross a generation or store version.
//
//	treegate -backend http://h1:8080 -backend http://h2:8080 -addr :8090
//	treegate -backend http://h1:8080 -backend http://h2:8080 \
//	    -ensemble forest=t-0,t-1,t-2
//
// The gate speaks treeserve's /v1 API unchanged (dist, knn, cut, emd,
// medoid, trees, trees/reload, quality) plus GET /v1/ensembles, so
// existing clients point at the gate without modification. POST
// /v1/trees/reload broadcasts to every healthy replica, rolling a store
// version push across the fleet in one call. Fleet state is metered on
// gate_* series at /metrics (see docs/OBSERVABILITY.md).
//
// TestGateSmoke in internal/e2e drills a fleet of these processes: 20000
// verified mixed queries from 8 clients (plain and ensemble queries, hot
// reloads) while a replica is SIGKILLed and restarted every 400ms.
//
// The ring's 64 virtual nodes per backend, the 4096-entry answer cache,
// the 4 failover sweeps (backoff jitter seed 1), the 8 MiB body limit
// and the 512 retained trace roots are fixed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpctree/internal/gate"
	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
)

// traceBuf is the number of completed sampled request roots retained for
// /trace/requests and -trace-out.
const traceBuf = 512

// repeatFlags collects repeated flag values (-backend, -ensemble).
type repeatFlags []string

func (t *repeatFlags) String() string { return strings.Join(*t, ",") }
func (t *repeatFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var backends, ensembles repeatFlags
	flag.Var(&backends, "backend", "treeserve replica base URL, e.g. http://host:8080 (repeatable, required)")
	flag.Var(&ensembles, "ensemble", "name=tree1,tree2,... — dist queries naming this fan across the member trees and answer the elementwise min (repeatable)")
	var (
		addr       = flag.String("addr", ":8090", "listen address (host:port; :0 picks a free port)")
		cacheCheck = flag.Int("cache-check", 64, "double-check every Nth cache hit against a live backend, counting disagreements on gate_cache_mismatch_total (0 = never)")
		healthIvl  = flag.Duration("health-interval", time.Second, "pace of background replica health polls")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-backend-attempt HTTP timeout")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests on SIGINT/SIGTERM")

		traceSample = flag.Float64("trace-sample", -1, "request-trace head-sampling fraction in [0,1]; the decision propagates to replicas via traceparent (negative disables tracing)")
		traceOut    = flag.String("trace-out", "", "write the merged gate+replica chrome-trace timeline here on shutdown (with -trace-sample >= 0)")
		sloTarget   = flag.Duration("slo", 0, "per-request latency objective; requests over it burn gate_slo_breaches_total and are logged at warn (0 = publish quantile gauges only)")

		logLevel  = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat = flag.String("log-format", "json", "log encoding: json|text")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fail(err)
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fail(err)
	}

	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "treegate: at least one -backend URL is required")
		flag.Usage()
		os.Exit(2)
	}
	ensembleMap := make(map[string][]string)
	for _, spec := range ensembles {
		name, list, ok := strings.Cut(spec, "=")
		if !ok || name == "" || list == "" {
			fail(fmt.Errorf("bad -ensemble %q (want name=tree1,tree2,...)", spec))
		}
		ensembleMap[name] = strings.Split(list, ",")
	}

	reg := obs.New()
	obs.RegisterBuildInfo(reg)
	var tracer *obs.Tracer
	if *traceSample >= 0 {
		tracer = obs.NewTracer(*traceSample, traceBuf)
	}
	g, err := gate.New(gate.Options{
		Backends:        backends,
		Ensembles:       ensembleMap,
		CacheCheckEvery: *cacheCheck,
		Retry:           mpcnet.RetryPolicy{MaxAttempts: 4, Seed: 1},
		HealthInterval:  *healthIvl,
		Timeout:         *timeout,
		Obs:             reg,
		Logger:          logger,
		Tracer:          tracer,
		SLOTarget:       *sloTarget,
	})
	if err != nil {
		fail(err)
	}
	g.Start()
	defer g.Stop()

	mux := http.NewServeMux()
	g.RegisterMux(mux)
	obs.RegisterDebug(mux, reg, func() *obs.Span { return nil })
	if tracer != nil {
		obs.RegisterRequestTraces(mux, tracer.Buffer())
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "treegate\n\nPOST /v1/dist /v1/knn /v1/cut /v1/emd /v1/medoid /v1/trees/reload\nGET  /v1/trees /v1/ensembles /v1/quality /v1/status\nGET  /healthz /metrics /metrics.json /debug/vars /debug/pprof/ /trace/requests\n")
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}()
	logger.Info("gating", "addr", "http://"+ln.Addr().String(),
		"backends", len(backends), "ensembles", len(ensembleMap))

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	logger.Info("draining", "signal", sig.String(), "budget", drain.String())
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("drain_incomplete", "error", err.Error())
		os.Exit(1)
	}
	// Export the merged timeline after the drain (every sampled request
	// has completed) but before this process exits, while the replicas
	// are still up to answer /trace/requests.
	if *traceOut != "" && tracer != nil {
		if err := obs.WriteChromeTraceFile(*traceOut, g.TraceProcesses(tracer.Buffer())); err != nil {
			logger.Error("trace_export_failed", "path", *traceOut, "error", err.Error())
			os.Exit(1)
		}
		logger.Info("trace_exported", "path", *traceOut, "requests", tracer.Buffer().Total())
	}
	logger.Info("drained")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "treegate:", err)
	os.Exit(1)
}
