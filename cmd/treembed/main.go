// Command treembed embeds a point set into a tree metric and reports the
// embedding's quality and cost.
//
// Points are read from a CSV/whitespace file (one point per line, equal
// dimension) or generated synthetically. Examples:
//
//	treembed -gen uniform -n 512 -d 8 -delta 1024 -method hybrid -r 2
//	treembed -in points.csv -method grid -trees 10
//	treembed -gen clusters -n 1000 -d 16 -mpc -machines 16
//	treembed -gen clusters -n 500 -audit -save t.tree -save-points t.csv
//	treembed -gen uniform -n 512 -store /var/trees -store-name demo
//
// The tool prints tree statistics, MPC accounting (with -mpc), and — for
// n ≤ 2048 — measured distortion over the requested number of trees.
// With -audit it also runs the quality auditor on the built tree
// (seeded pair sample, domination and Theorem-2 checks) and prints the
// report; diagnostics go through log/slog (-log-level, -log-format).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpctree"
	"mpctree/internal/core"
	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
	"mpctree/internal/obs/fleet"
	"mpctree/internal/par"
	"mpctree/internal/quality"
	"mpctree/internal/resilient"
	"mpctree/internal/stats"
	"mpctree/internal/treestore"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

var logger = slog.Default()

func main() {
	var (
		in       = flag.String("in", "", "input file (one point per line; comma or space separated)")
		gen      = flag.String("gen", "uniform", "synthetic workload: uniform | clusters | corners | circle")
		n        = flag.Int("n", 256, "points to generate")
		d        = flag.Int("d", 8, "dimension to generate")
		delta    = flag.Int("delta", 1024, "lattice extent Δ")
		method   = flag.String("method", "hybrid", "partitioning: hybrid | grid | ball")
		r        = flag.Int("r", 0, "hybrid bucket count (0 = Θ(log log n))")
		trees    = flag.Int("trees", 5, "trees to sample for distortion stats")
		seed     = flag.Uint64("seed", 1, "random seed")
		useMPC   = flag.Bool("mpc", false, "run the full MPC pipeline (FJLT + Algorithm 2)")
		machines = flag.Int("machines", 8, "simulated machines (with -mpc)")

		transport      = flag.String("transport", "sim", "MPC record plane (with -mpc): sim | tcp")
		transportAddrs = flag.String("transport-addrs", "", "comma-separated worker addresses (with -transport=tcp)")
		transportObs   = flag.String("transport-obs", "", "comma-separated worker debug-endpoint URLs, index-aligned with -transport-addrs (with -transport=tcp); auto-filled by -transport-spawn")
		transportSpawn = flag.Int("transport-spawn", 0, "spawn this many local mpcworker processes instead of using -transport-addrs (with -transport=tcp)")
		workerBin      = flag.String("transport-worker-bin", "mpcworker", "worker binary for -transport-spawn")

		faults     = flag.Float64("faults", 0, "per-round fault-injection probability per class (with -mpc); enables resilient execution")
		faultSeed  = flag.Uint64("fault-seed", 0, "fault-schedule seed (0 = derive from -seed)")
		maxRetries = flag.Int("max-retries", 0, "per-stage retry budget under -faults (0 = auto 40, -1 = none)")
		saveTo     = flag.String("save", "", "write the embedding tree (binary) to this file")
		storeDir   = flag.String("store", "", "publish the embedding tree as a new version in this tree store directory (serve it with treeserve -store)")
		storeName  = flag.String("store-name", "", "tree name inside -store (default: the -store-name of the previous version, else \"tree\")")
		savePts    = flag.String("save-points", "", "write the (deduplicated) embedded points to this file, exact round-trip precision")
		dotTo      = flag.String("dot", "", "write the tree as Graphviz DOT to this file")
		httpAddr   = flag.String("http", "", "serve /metrics, /trace, /debug/vars and /debug/pprof on this address (e.g. :9090) and linger after the run until SIGINT/SIGTERM (with -mpc)")
		trace      = flag.Bool("trace", false, "record and print the per-round communication/residency trace (with -mpc)")
		traceOut   = flag.String("trace-out", "", "write the merged coordinator+worker span timeline as Chrome trace-event JSON (open in ui.perfetto.dev) to this file (with -mpc)")

		audit      = flag.Bool("audit", false, "run the quality auditor on the built tree and print the report")
		auditPairs = flag.Int("audit-pairs", 2048, "point pairs sampled by -audit (-1 = all pairs)")

		logLevel  = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log encoding: text|json")
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

	if (*httpAddr != "" || *trace || *traceOut != "") && !*useMPC {
		fmt.Fprintln(os.Stderr, "treembed: -http, -trace and -trace-out require -mpc (they observe the simulated cluster)")
		os.Exit(2)
	}

	pts, err := loadOrGenerate(*in, *gen, *n, *d, *delta, *seed)
	if err != nil {
		fail(err)
	}
	logger.Info("points_ready", "points", len(pts), "dimension", len(pts[0]))
	fmt.Printf("points: %d, dimension: %d\n", len(pts), len(pts[0]))
	if *savePts != "" {
		if err := workload.WritePoints(*savePts, pts); err != nil {
			fail(err)
		}
		fmt.Printf("points saved to %s\n", *savePts)
	}

	if *useMPC {
		mopt := mpctree.MPCOptions{Machines: *machines, CapWords: 1 << 22, Seed: *seed, Trace: *trace}

		// Observability first: the tcp transport takes the registry and a
		// wire-span root at dial time. Everything here is write-only
		// instrumentation — the tree is bit-identical with or without it.
		var reg *obs.Registry
		var root, wireRoot *obs.Span
		var srv *obs.Server
		if *httpAddr != "" || *audit || *traceOut != "" {
			reg = obs.New()
			obs.RegisterBuildInfo(reg)
			par.Instrument(reg)
			resilient.Instrument(reg)
			root = obs.NewSpan("treembed")
			mopt.Obs = reg
			mopt.Span = root
			if *httpAddr != "" {
				var err error
				srv, err = obs.Serve(*httpAddr, reg, root, nil)
				if err != nil {
					fail(err)
				}
				fmt.Printf("observability: http://%s (/metrics, /trace, /debug/vars, /debug/pprof)\n", srv.Addr())
			}
		}

		// A real (TCP) record plane: workers are separate processes, so
		// resilient execution is forced on — worker death must recover by
		// checkpointed replay, not fail the run.
		var netTransport *mpcnet.Transport
		var scraper *fleet.Scraper
		switch *transport {
		case "sim":
		case "tcp":
			addrs := splitAddrs(*transportAddrs)
			obsURLs := splitAddrs(*transportObs)
			if *transportSpawn > 0 {
				procs, err := mpcnet.SpawnWorkers(*workerBin, *transportSpawn)
				if err != nil {
					fail(fmt.Errorf("spawn workers: %w", err))
				}
				defer mpcnet.KillAll(procs)
				addrs = mpcnet.Addrs(procs)
				obsURLs = mpcnet.ObsURLs(procs)
				fmt.Printf("transport: spawned %d workers (%s)\n", len(procs), strings.Join(addrs, ", "))
			}
			if len(addrs) == 0 {
				fail(fmt.Errorf("-transport=tcp needs -transport-addrs or -transport-spawn"))
			}
			tr, err := mpcnet.Dial(mpcnet.Config{Addrs: addrs, Machines: *machines, Retry: mpcnet.RetryPolicy{Seed: *seed}})
			if err != nil {
				fail(err)
			}
			defer tr.Close()
			netTransport = tr
			mopt.Transport = tr
			mopt.Resilient = true
			if reg != nil {
				tr.Instrument(reg)
			}
			if *traceOut != "" {
				// Wire spans live under their OWN root, not the pipeline
				// root: phase leaves must stay leaves so the SumMetric
				// leaf identity (and the printed phase table) is untouched.
				wireRoot = obs.NewSpan("mpcnet_client")
				tr.EnableTracing(wireRoot)
			}
			if reg != nil && len(obsURLs) > 0 {
				targets := make([]fleet.Target, len(obsURLs))
				for i, u := range obsURLs {
					targets[i] = fleet.Target{ID: strconv.Itoa(i), URL: u}
				}
				scraper = fleet.New(reg, targets)
				scraper.Start(time.Second)
				defer scraper.Stop()
			}
		default:
			fail(fmt.Errorf("unknown -transport %q (sim | tcp)", *transport))
		}
		if *audit {
			mopt.Quality = mpctree.NewQualityCollector(reg,
				mpctree.QualityConfig{MaxPairs: *auditPairs, Seed: *seed})
		}

		if *faults > 0 {
			fs := *faultSeed
			if fs == 0 {
				fs = *seed ^ 0xC4A05
			}
			mopt.Faults = mpctree.UniformFaults(fs, *faults)
			mopt.Resilient = true
			mopt.MaxRetries = *maxRetries
			if mopt.MaxRetries == 0 {
				mopt.MaxRetries = 40 // five fault classes compound; the driver's default 3 is for single-digit rates
			}
		}
		tree, info, err := mpctree.EmbedMPC(pts, mopt)
		if err != nil {
			fail(err)
		}
		fmt.Printf("tree: %d nodes, height %d\n", tree.NumNodes(), tree.Height())
		fmt.Printf("MPC: %d machines, %d rounds, peak local %d words, total space %d words, comm %d words\n",
			info.Machines, info.Metrics.Rounds, info.Metrics.MaxLocalWords, info.Metrics.TotalSpace, info.Metrics.CommWords)
		if netTransport != nil {
			st := netTransport.Stats()
			fmt.Printf("transport: tcp, %d ops, %d retries, %d redials, %d dead workers, %d machines remapped, %d live workers, %d B sent, %d B received\n",
				st.Ops, st.Retries, st.Redials, st.DeadWorkers, st.Remapped, netTransport.LiveWorkers(), st.BytesSent, st.BytesReceived)
			if info.Recovery.Restores > 0 {
				fmt.Printf("recovery: %d attempts, %d restores, %d rounds rolled back\n",
					info.Attempts, info.Recovery.Restores, info.Recovery.RolledBackRounds)
			}
		}
		if info.UsedFJLT {
			fmt.Printf("FJLT: d %d → k %d (ξ-style reduction engaged)\n", len(pts[0]), info.FJLTParams.K)
		}
		if info.EmbedInfo != nil {
			fmt.Printf("hybrid: r=%d, %d levels, U=%d grids/(level,bucket), grid state %d words\n",
				info.EmbedInfo.R, info.EmbedInfo.Levels, info.EmbedInfo.U, info.EmbedInfo.GridWords)
		}
		if *faults > 0 {
			fmt.Printf("chaos: %d faults injected (%d crashes, %d transient, %d drop, %d dup, %d pressure)\n",
				info.Faults.Injected(), info.Faults.Crashes, info.Faults.Transients,
				info.Faults.Drops, info.Faults.Duplicates, info.Faults.Pressures)
			fmt.Printf("recovery: %d attempts, %d restores, %d rounds rolled back, %d ms virtual backoff\n",
				info.Attempts, info.Recovery.Restores, info.Recovery.RolledBackRounds, info.VirtualBackoffMs)
			if info.Degraded {
				fmt.Printf("DEGRADED: %s (embedded original un-reduced points)\n", info.DegradedReason)
			}
		}
		if *audit {
			printAudit(mopt.Quality.Last())
		}
		if *saveTo != "" {
			if err := saveTree(tree, *saveTo); err != nil {
				fail(err)
			}
			fmt.Printf("saved to %s\n", *saveTo)
		}
		if *storeDir != "" {
			if err := publishTree(tree, *storeDir, *storeName); err != nil {
				fail(err)
			}
		}
		if *trace {
			fmt.Print(mpctree.FormatRoundTrace(info.RoundTrace))
		}
		root.End()
		wireRoot.End()
		if root != nil {
			fmt.Print(root.RenderString())
		}
		if *traceOut != "" {
			// One last sweep so the timeline (and the fleet series a
			// lingering /metrics serves) reflect the finished run.
			tprocs := []obs.TraceProcess{{Name: "coordinator"}}
			if sn := root.Snapshot(); sn != nil {
				tprocs[0].Roots = append(tprocs[0].Roots, sn)
			}
			if sn := wireRoot.Snapshot(); sn != nil {
				tprocs[0].Roots = append(tprocs[0].Roots, sn)
			}
			if scraper != nil {
				scraper.ScrapeOnce()
				tprocs = append(tprocs, scraper.FetchSpans()...)
			}
			if err := obs.WriteChromeTraceFile(*traceOut, tprocs); err != nil {
				fail(err)
			}
			fmt.Printf("timeline written to %s (load in ui.perfetto.dev)\n", *traceOut)
		}
		if srv != nil {
			// Linger so scrapers (the end-to-end tests, a human) can read
			// the finished run's metrics and span tree at leisure. The
			// handler is in place before the line that announces it.
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			fmt.Printf("serving on http://%s until SIGINT/SIGTERM\n", srv.Addr())
			<-ch
			srv.Close()
		}
		return
	}

	var m mpctree.Method
	switch *method {
	case "hybrid":
		m = mpctree.Hybrid
	case "grid":
		m = mpctree.Grid
	case "ball":
		m = mpctree.Ball
	default:
		fmt.Fprintf(os.Stderr, "treembed: unknown method %q\n", *method)
		os.Exit(1)
	}

	tree, info, err := mpctree.Embed(pts, mpctree.Options{Method: m, R: *r, Seed: *seed})
	if err != nil {
		fail(err)
	}
	fmt.Printf("tree: %d nodes, height %d, levels %d, r=%d\n", tree.NumNodes(), tree.Height(), info.Levels, info.R)
	if *audit {
		rep, err := quality.Audit(tree, pts, quality.Config{MaxPairs: *auditPairs, Seed: *seed})
		if err != nil {
			fail(err)
		}
		printAudit(rep)
	}
	if *saveTo != "" {
		if err := saveTree(tree, *saveTo); err != nil {
			fail(err)
		}
		fmt.Printf("saved to %s\n", *saveTo)
	}
	if *storeDir != "" {
		if err := publishTree(tree, *storeDir, *storeName); err != nil {
			fail(err)
		}
	}
	if *dotTo != "" {
		if err := dumpDOT(tree, *dotTo); err != nil {
			fail(err)
		}
		fmt.Printf("DOT written to %s\n", *dotTo)
	}

	if len(pts) <= 2048 && *trees > 0 {
		dist, err := stats.MeasureDistortion(pts, *trees, func(s uint64) (*mpctree.Tree, error) {
			t, _, err := core.Embed(pts, core.Options{Method: m, R: *r, Seed: *seed ^ s<<17})
			return t, err
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("distortion over %d trees: E[max pair] %.3f, mean %.3f, min single %.4f (domination requires ≥ 1), p95 %.3f\n",
			dist.Trees, dist.MaxMeanRatio, dist.MeanRatio, dist.MinRatio, dist.P95Ratio)
	}
}

// printAudit renders one quality report on stdout and mirrors it into
// the structured log.
func printAudit(rep *quality.Report) {
	if rep == nil {
		fmt.Println("audit: no report (pipeline audit did not run)")
		return
	}
	fmt.Printf("audit: %d/%d pairs (seed %d): mean %.3f, p95 %.3f, max %.3f, min %.4f; domination violations %d\n",
		rep.SampledPairs, rep.TotalPairs, rep.Seed,
		rep.MeanRatio, rep.P95Ratio, rep.MaxRatio, rep.MinRatio, rep.DominationViolations)
	if rep.BoundViolated {
		fmt.Printf("audit: WARNING mean ratio %.3f exceeds alarm threshold %.3f\n", rep.MeanRatio, rep.MaxMeanRatio)
	}
	for _, st := range rep.Levels {
		logger.Debug("audit_level", "level", st.Level, "together", st.Together,
			"separated", st.Separated, "sep_rate", st.SepRate, "diam_ratio", st.DiamRatio)
	}
	logger.Info("audit", "pairs", rep.SampledPairs, "mean_ratio", rep.MeanRatio,
		"max_ratio", rep.MaxRatio, "min_ratio", rep.MinRatio,
		"p95_ratio", rep.P95Ratio, "domination_violations", rep.DominationViolations,
		"bound_violated", rep.BoundViolated)
}

// publishTree saves the built tree as a new version in the tree store
// (crash-safe: bytes and manifest land before CURRENT advances) and
// prints the manifest identity replicas will verify against.
func publishTree(t *mpctree.Tree, dir, name string) error {
	st, err := treestore.Open(dir)
	if err != nil {
		return err
	}
	if name == "" {
		name = "tree"
	}
	m, err := st.Save(name, t)
	if err != nil {
		return err
	}
	fmt.Printf("stored as %s v%d in %s (%d bytes, sha256 %s…)\n", m.Name, m.Version, dir, m.Bytes, m.SHA256[:12])
	return nil
}

func saveTree(t *mpctree.Tree, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func dumpDOT(t *mpctree.Tree, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.DOT(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadOrGenerate(in, gen string, n, d, delta int, seed uint64) ([]vec.Point, error) {
	if in != "" {
		return workload.ReadPoints(in)
	}
	switch gen {
	case "uniform":
		return workload.UniformLattice(seed, n, d, delta), nil
	case "clusters":
		return workload.GaussianClusters(seed, n, d, 5, float64(delta)/64, delta), nil
	case "corners":
		return workload.HypercubeCorners(seed, n, d, delta), nil
	case "circle":
		return workload.Circle(seed, n, delta), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", gen)
	}
}

// splitAddrs splits a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "treembed:", err)
	os.Exit(1)
}
