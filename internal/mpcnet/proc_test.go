// Real-process fault drill: workers run as separate OS processes (the
// test binary re-executing itself in helper mode), one is armed to
// SIGKILL itself mid-run, and the pipeline must recover a tree
// bit-identical to the fault-free simulator's. This is the acceptance
// test for the transport's headline claim, kept hermetic via the
// standard helper-process pattern — no pre-built worker binary needed.
package mpcnet

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/mpc"
)

// TestHelperProcess is not a test: when re-executed with the marker env
// var it becomes an mpcworker process and never returns.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("MPCNET_WANT_WORKER") != "1" {
		return
	}
	// Args after "--" follow mpcworker's flag convention.
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	listen, dieAfter := "127.0.0.1:0", 0
	for i := 0; i < len(args)-1; i += 2 {
		switch args[i] {
		case "-listen":
			listen = args[i+1]
		case "-die-after":
			dieAfter, _ = strconv.Atoi(args[i+1])
		}
	}
	w := NewWorker()
	w.KillProcess = true
	if dieAfter > 0 {
		w.SetDieAfter(dieAfter)
	}
	if err := w.ListenAndServe(listen, os.Stdout); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnHelperWorkers launches n workers as real OS processes.
func spawnHelperWorkers(t *testing.T, n int, perWorker map[int][]string) []*WorkerProc {
	t.Helper()
	procs, err := SpawnWorkers(os.Args[0], n, SpawnOptions{
		PrefixArgs:    []string{"-test.run=TestHelperProcess", "--"},
		Env:           []string{"MPCNET_WANT_WORKER=1"},
		PerWorkerArgs: perWorker,
	})
	if err != nil {
		t.Skipf("cannot spawn worker processes in this environment: %v", err)
	}
	t.Cleanup(func() { KillAll(procs) })
	return procs
}

// TestSIGKILLRecoveryBitIdentical: four real worker processes, one
// SIGKILLs itself mid-run; the resilient pipeline over the TCP transport
// must produce the same tree bytes as the fault-free in-process
// simulator, with the death and recovery visible in the meters.
func TestSIGKILLRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	pts := testPoints(48, 6, 7)
	popt := core.PipelineOptions{Seed: 11, Resilient: true}
	cfg := mpc.Config{Machines: 8, CapWords: 1 << 20}

	simCluster := mpc.New(cfg)
	simTree := treeBytes(t, simCluster, pts, popt)

	procs := spawnHelperWorkers(t, 4, map[int][]string{
		2: {"-die-after", "30"},
	})
	tr, err := Dial(Config{Addrs: Addrs(procs), Machines: cfg.Machines, Retry: fastRetry(8)})
	if err != nil {
		t.Fatalf("dial fleet: %v", err)
	}
	defer tr.Close()

	tcpCluster := mpc.NewWithTransport(cfg, tr)
	tcpTree := treeBytes(t, tcpCluster, pts, popt)

	if !bytes.Equal(simTree, tcpTree) {
		t.Fatalf("tree after SIGKILL recovery differs from fault-free simulator tree")
	}
	st := tr.Stats()
	if st.DeadWorkers != 1 {
		t.Fatalf("DeadWorkers = %d, want 1 (stats %+v)", st.DeadWorkers, st)
	}
	// Recovery is remap + checkpointed replay, not reconnection — a
	// SIGKILLed process never comes back, so Redials stays 0 while the
	// retry/remap counters show the degradation.
	if st.Remapped == 0 || st.Retries == 0 {
		t.Fatalf("recovery not visible in stats: %+v", st)
	}
	if rec := tcpCluster.Recovery(); rec.Restores == 0 {
		t.Fatalf("no checkpoint restore recorded: %+v", rec)
	}
	if tr.LiveWorkers() != 3 {
		t.Fatalf("LiveWorkers = %d, want 3", tr.LiveWorkers())
	}
}

// TestSpawnWorkers covers the announce-parse contract on the happy path.
func TestSpawnWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	procs := spawnHelperWorkers(t, 2, nil)
	for i, p := range procs {
		if p.Addr == "" {
			t.Fatalf("worker %d announced no address", i)
		}
	}
	tr, err := Dial(Config{Addrs: Addrs(procs), Machines: 2, Retry: fastRetry(12)})
	if err != nil {
		t.Fatalf("dial spawned fleet: %v", err)
	}
	defer tr.Close()
	if err := tr.Write(1, []mpc.Record{{Key: "spawned"}}); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := tr.Read(1)
	if err != nil || len(got) != 1 || got[0].Key != "spawned" {
		t.Fatalf("read back %v, %v", got, err)
	}
}
