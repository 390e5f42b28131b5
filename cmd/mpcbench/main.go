// Command mpcbench regenerates the paper's quantitative claims as tables.
//
// Usage:
//
//	mpcbench                 # run every experiment at full size
//	mpcbench -exp E07-Thm1   # run one experiment
//	mpcbench -quick          # CI-sized workloads
//	mpcbench -list           # list experiment ids and claims
//	mpcbench -seed 7         # change the master seed
//
// Each experiment prints its measured table(s) followed by PASS/FAIL
// shape checks against the corresponding theorem or figure; the process
// exits nonzero if any check fails. See EXPERIMENTS.md for the recorded
// full-size results and their interpretation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mpctree/internal/experiments"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
	"mpctree/internal/obs/fleet"
	"mpctree/internal/par"
	"mpctree/internal/quality"
	"mpctree/internal/resilient"
)

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

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	quick := flag.Bool("quick", false, "CI-sized workloads")
	seed := flag.Uint64("seed", 12345, "master seed")
	list := flag.Bool("list", false, "list experiments and exit")
	faults := flag.Float64("faults", 0, "per-round fault-injection probability for E16-Chaos (0 = its built-in rate ladder)")
	faultSeed := flag.Uint64("fault-seed", 0, "fault-schedule seed (0 = derive from -seed)")
	maxRetries := flag.Int("max-retries", 0, "per-stage retry budget for E16-Chaos (0 = default)")
	workers := flag.Int("workers", 0, "data-parallel workers for pure compute; results are identical for any value (0 = GOMAXPROCS)")
	transport := flag.String("transport", "sim", "MPC record plane: sim | tcp")
	transportAddrs := flag.String("transport-addrs", "", "comma-separated worker addresses (with -transport=tcp)")
	transportObs := flag.String("transport-obs", "", "comma-separated worker debug-endpoint URLs, index-aligned with -transport-addrs (with -transport=tcp); auto-filled by -transport-spawn")
	transportSpawn := flag.Int("transport-spawn", 0, "spawn this many local mpcworker processes instead of using -transport-addrs (with -transport=tcp)")
	workerBin := flag.String("transport-worker-bin", "mpcworker", "worker binary for -transport-spawn")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address while the experiments run (e.g. :9090)")
	trace := flag.Bool("trace", false, "record per-round traces on every simulated cluster and print them after each experiment")
	traceOut := flag.String("trace-out", "", "write the merged coordinator+worker span timeline as Chrome trace-event JSON (open in ui.perfetto.dev) to this file")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log encoding: text|json")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcbench:", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcbench:", err)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := experiments.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *workers, Faults: *faults, FaultSeed: *faultSeed, MaxRetries: *maxRetries}

	// Observability first: the tcp transport factory captures the registry
	// and wire-span root, so they must exist before the switch below.
	// Experiments run serially, so the traced slice needs no locking.
	var reg *obs.Registry
	var wireRoot, benchRoot *obs.Span
	var traced []*mpc.Cluster
	if *httpAddr != "" || *traceOut != "" {
		reg = obs.New()
		obs.RegisterBuildInfo(reg)
		par.Instrument(reg)
		resilient.Instrument(reg)
		// Quality series ride the same registry: E17 publishes its audit
		// reports through the collector, so a scrape of a live mpcbench
		// run sees quality_* next to the mpc_* and par_* families.
		cfg.Quality = quality.NewCollector(reg, quality.Config{Seed: *seed, Workers: *workers})
	}
	if *traceOut != "" {
		benchRoot = obs.NewSpan("mpcbench")
		// Wire spans get their own root so experiment spans stay clean.
		wireRoot = obs.NewSpan("mpcnet_client")
	}

	// A TCP record plane: one worker fleet serves every experiment
	// cluster; each cluster dials a fresh coordinator transport and
	// resets the fleet's stores and sequence epoch before loading data.
	var scraper *fleet.Scraper
	switch *transport {
	case "sim":
	case "tcp":
		addrs := splitAddrs(*transportAddrs)
		obsURLs := splitAddrs(*transportObs)
		if *transportSpawn > 0 {
			procs, err := mpcnet.SpawnWorkers(*workerBin, *transportSpawn, mpcnet.SpawnOptions{Stderr: true})
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpcbench: spawn workers:", err)
				os.Exit(2)
			}
			defer mpcnet.KillAll(procs)
			addrs = mpcnet.Addrs(procs)
			obsURLs = mpcnet.ObsURLs(procs)
			logger.Info("transport_spawned", "workers", len(procs), "addrs", strings.Join(addrs, ","))
		}
		if len(addrs) == 0 {
			fmt.Fprintln(os.Stderr, "mpcbench: -transport=tcp needs -transport-addrs or -transport-spawn")
			os.Exit(2)
		}
		cfg.NewTransport = func(mcfg mpc.Config) mpc.Transport {
			tr, err := mpcnet.Dial(mpcnet.Config{Addrs: addrs, Machines: mcfg.Machines, Retry: mpcnet.RetryPolicy{Seed: *seed}})
			if err == nil {
				err = tr.Reset()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpcbench: dial worker fleet:", err)
				os.Exit(2)
			}
			if reg != nil {
				tr.Instrument(reg)
			}
			if wireRoot != nil {
				tr.EnableTracing(wireRoot)
			}
			return tr
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
		fmt.Fprintf(os.Stderr, "mpcbench: unknown -transport %q (sim | tcp)\n", *transport)
		os.Exit(2)
	}
	if reg != nil || *trace {
		cfg.OnCluster = func(c *mpc.Cluster) {
			if reg != nil {
				c.Instrument(reg)
			}
			if *trace {
				c.EnableTrace()
				traced = append(traced, c)
			}
		}
	}
	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpcbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr())
	}

	failed := 0
	for _, id := range ids {
		start := time.Now()
		esp := benchRoot.Child(id)
		res, err := experiments.Run(id, cfg)
		esp.End()
		if err != nil {
			logger.Error("experiment_error", "id", id, "error", err.Error())
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(res.String())
		logger.Info("experiment_done", "id", id,
			"checks", len(res.Checks), "failed", len(res.Failed()),
			"duration_ms", time.Since(start).Milliseconds())
		for _, c := range traced {
			if st := c.Trace(); len(st) > 0 {
				fmt.Print(mpc.FormatTrace(st))
			}
		}
		traced = traced[:0]
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		failed += len(res.Failed())
	}
	benchRoot.End()
	wireRoot.End()
	if *traceOut != "" {
		tprocs := []obs.TraceProcess{{Name: "coordinator"}}
		if sn := benchRoot.Snapshot(); sn != nil {
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
			fmt.Fprintln(os.Stderr, "mpcbench:", err)
			os.Exit(1)
		}
		fmt.Printf("timeline written to %s (load in ui.perfetto.dev)\n", *traceOut)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d check(s) failed\n", failed)
		os.Exit(1)
	}
}
