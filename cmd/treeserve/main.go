// Command treeserve serves tree-metric queries over saved embeddings —
// the long-running counterpart of treequery. It loads one or more trees
// written by `treembed -save`, answers concurrent batched queries over
// HTTP/JSON, hot-reloads trees without dropping in-flight requests, and
// exposes the full observability surface (/metrics, /metrics.json,
// /debug/vars, /debug/pprof) on the same listener. When the original
// points are registered alongside a tree (-points), a background quality
// auditor measures distortion against the Euclidean metric after every
// load and hot reload, publishing quality_* metrics and /v1/quality.
//
// Trees come from explicit files (-tree name=path) or from a versioned
// tree store directory (-store, see treembed -store / docs/SERVING.md):
// every tree in the store is loaded at its CURRENT version with full
// manifest verification (byte length, sha256), and a hot reload re-reads
// CURRENT, so pushing a new version and POSTing /v1/trees/reload rolls
// the server forward without a restart.
//
//	treeserve -tree demo=t.tree -addr :8080
//	treeserve -store /var/trees -addr :8080
//	treeserve -tree demo=t.tree -points demo=t.csv -audit-pairs 1024
//	treeserve -tree a=a.tree -tree b=b.tree -deadline 5s
//
// API (JSON bodies; see docs/SERVING.md):
//
//	POST /v1/dist          {"tree":"demo","pairs":[[0,1],[2,3]]}
//	POST /v1/knn           {"tree":"demo","point":4,"k":3}
//	POST /v1/cut           {"tree":"demo","scale":50}
//	POST /v1/emd           {"tree":"demo","mu":"0:1,5:0.5","nu":"9:1.5"}
//	POST /v1/medoid        {"tree":"demo"}
//	GET  /v1/trees
//	POST /v1/trees/reload  {"tree":"demo"}
//	GET  /v1/quality[?tree=demo]
//
// TestServeSmoke in internal/e2e drills this process with 20000 verified
// queries (16-pair dist batches, stream seed 1) from 8 clients, with a
// hot reload every 100th request per client.
//
// Logs are structured (log/slog); -log-format json is the default for
// this daemon so access logs and audit results are machine-parseable.
// Requests slower than -slo are logged at warn. The body limit (8 MiB)
// and the 512 retained trace roots are fixed.
// On SIGINT/SIGTERM the server drains gracefully: the listener closes,
// in-flight requests run to completion (up to -drain), then the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpctree/internal/obs"
	"mpctree/internal/par"
	"mpctree/internal/quality"
	"mpctree/internal/serve"
	"mpctree/internal/treestore"
)

// repeatFlags collects repeated name=path arguments (-tree, -points).
type repeatFlags []string

func (t *repeatFlags) String() string { return strings.Join(*t, ",") }
func (t *repeatFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

var logger = slog.Default()

// traceBuf is the number of completed sampled request roots retained for
// /trace/requests.
const traceBuf = 512

func main() {
	var trees, points repeatFlags
	flag.Var(&trees, "tree", "name=path of a tree written by treembed -save (repeatable, required)")
	flag.Var(&points, "points", "name=path of the named tree's original points (repeatable; enables background quality audits)")
	var (
		storeDir = flag.String("store", "", "versioned tree store directory (loads every tree in it; see treembed -store)")
		addr     = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		deadline = flag.Duration("deadline", 30*time.Second, "per-request wall budget (answers 503 when exceeded)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests on SIGINT/SIGTERM")

		auditPairs = flag.Int("audit-pairs", 512, "point pairs sampled per quality audit (-1 = all pairs; with -points)")
		auditSeed  = flag.Uint64("audit-seed", 1, "pair-sampling seed for quality audits")
		maxMean    = flag.Float64("max-distortion", 0, "mean-distortion alarm threshold for audits (0 = no alarm)")

		traceSample = flag.Float64("trace-sample", -1, "request-trace head-sampling fraction in [0,1]; 0 records only propagated (gate-sampled) traces, negative disables tracing entirely")
		sloTarget   = flag.Duration("slo", 0, "per-request latency objective; requests over it burn serve_slo_breaches_total and are logged at warn (0 = publish quantile gauges only)")

		logLevel  = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat = flag.String("log-format", "json", "log encoding: json|text")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fail(err)
	}
	logger, err = obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fail(err)
	}

	if len(trees) == 0 && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "treeserve: at least one -tree name=path or a -store directory is required")
		flag.Usage()
		os.Exit(2)
	}

	reg := obs.New()
	obs.RegisterBuildInfo(reg)
	par.Instrument(reg)
	registry := serve.NewRegistry(reg)
	if len(points) > 0 {
		registry.EnableQuality(quality.Config{
			MaxPairs:     *auditPairs,
			Seed:         *auditSeed,
			MaxMeanRatio: *maxMean,
		}, logger)
	}
	loaded := 0
	noteLoaded := func(name, path string) {
		t, _ := registry.Get(name)
		logger.Info("tree_loaded", "tree", name, "path", path,
			"points", t.NumPoints(), "nodes", t.NumNodes(), "height", t.Height())
		loaded++
	}
	for _, spec := range trees {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fail(fmt.Errorf("bad -tree %q (want name=path)", spec))
		}
		if err := registry.Load(name, path); err != nil {
			fail(err)
		}
		noteLoaded(name, path)
	}
	if *storeDir != "" {
		st, err := treestore.Open(*storeDir)
		if err != nil {
			fail(err)
		}
		names, err := st.Names()
		if err != nil {
			fail(err)
		}
		if len(names) == 0 && len(trees) == 0 {
			fail(fmt.Errorf("store %s holds no trees", *storeDir))
		}
		for _, name := range names {
			if err := registry.LoadWith(name, serve.StoreLoader(st, name)); err != nil {
				fail(err)
			}
			version, _ := st.Current(name)
			noteLoaded(name, st.TreePath(name, version))
		}
	}
	for _, spec := range points {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fail(fmt.Errorf("bad -points %q (want name=path)", spec))
		}
		if err := registry.LoadPoints(name, path); err != nil {
			fail(err)
		}
		logger.Info("points_loaded", "tree", name, "path", path)
	}

	var tracer *obs.Tracer
	if *traceSample >= 0 {
		tracer = obs.NewTracer(*traceSample, traceBuf)
	}
	server := serve.NewServer(registry, serve.Options{
		Deadline:  *deadline,
		Obs:       reg,
		Logger:    logger,
		Tracer:    tracer,
		SLOTarget: *sloTarget,
	})
	mux := http.NewServeMux()
	server.RegisterMux(mux)
	obs.RegisterDebug(mux, reg, func() *obs.Span { return nil })
	if tracer != nil {
		obs.RegisterRequestTraces(mux, tracer.Buffer())
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "treeserve\n\nPOST /v1/dist /v1/knn /v1/cut /v1/emd /v1/medoid /v1/trees/reload\nGET  /v1/trees /v1/quality\nGET  /healthz /metrics /metrics.json /debug/vars /debug/pprof/ /trace/requests\n")
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
	logger.Info("serving", "addr", "http://"+ln.Addr().String(), "trees", loaded)

	// Graceful drain: stop accepting, let in-flight requests finish.
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
	registry.WaitAudits()
	logger.Info("drained")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "treeserve:", err)
	os.Exit(1)
}
