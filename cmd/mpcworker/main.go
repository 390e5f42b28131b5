// mpcworker is the remote half of the TCP record plane: a record-store
// server hosting logical MPC machine stores for a coordinator
// (treembed/mpcbench with -transport=tcp). It binds the requested
// address, prints "MPCNET LISTEN <addr>" on stdout so spawners can use
// ephemeral ports, and serves until killed.
//
//	mpcworker -listen 127.0.0.1:0
//	mpcworker -listen 127.0.0.1:7701 -die-after 40   # crash drill
//
// -die-after N makes the worker SIGKILL itself upon processing its N-th
// op, before responding: the deterministic mid-round crash with which
// the end-to-end tests prove checkpointed replay recovers bit-identically.
//
// The worker also self-observes: unless -obs-listen is empty, it serves
// the standard debug surface (/metrics, /metrics.json, /trace,
// /debug/pprof/*) and announces it as "MPCNET OBS <url>" on stdout
// BEFORE the LISTEN line, so spawners capture both in one scan. The
// coordinator's fleet scraper polls that endpoint and re-exports the
// series as worker_* on its own /metrics.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to bind (:0 picks an ephemeral port)")
	obsListen := flag.String("obs-listen", "127.0.0.1:0", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address, announced as MPCNET OBS (empty disables)")
	dieAfter := flag.Int("die-after", 0, "SIGKILL self after processing this many ops (0 = never)")
	verbose := flag.Bool("v", false, "log lifecycle events to stderr")
	flag.Parse()

	w := mpcnet.NewWorker()
	w.KillProcess = true // a tripped die-after is a real crash, not a polite shutdown
	if *dieAfter > 0 {
		w.SetDieAfter(*dieAfter)
	}
	if *verbose {
		w.Logf = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds).Printf
	}
	if *obsListen != "" {
		reg := obs.New()
		obs.RegisterBuildInfo(reg)
		w.Instrument(reg)
		srv, err := obs.Serve(*obsListen, reg, w.TraceRoot())
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcworker: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("MPCNET OBS http://%s\n", srv.Addr())
	}
	if err := w.ListenAndServe(*listen, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mpcworker: %v\n", err)
		os.Exit(1)
	}
}
