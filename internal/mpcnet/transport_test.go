package mpcnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"mpctree/internal/core"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcapps"
	"mpctree/internal/resilient"
	"mpctree/internal/rng"
)

// startWorkers launches n in-process workers on ephemeral ports and
// returns them with their addresses. Cleanup closes the listeners.
func startWorkers(t *testing.T, n int) ([]*Worker, []string) {
	t.Helper()
	workers := make([]*Worker, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		w := NewWorker()
		workers[i] = w
		addrs[i] = ln.Addr().String()
		go w.Serve(ln)
		t.Cleanup(func() { ln.Close() })
	}
	return workers, addrs
}

func fastRetry(seed uint64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Seed:        seed,
	}
}

func TestTransportBasicOps(t *testing.T) {
	_, addrs := startWorkers(t, 2)
	tr, err := Dial(Config{Addrs: addrs, Machines: 4, Retry: fastRetry(1)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()

	recs := []mpc.Record{
		{Key: "a", Tag: 1, Ints: []int64{1, -2}, Data: []float64{3.5}},
		{Key: "b", Tag: 2},
	}
	for m := 0; m < 4; m++ {
		if err := tr.Write(m, recs); err != nil {
			t.Fatalf("write %d: %v", m, err)
		}
	}
	if err := tr.Append(3, recs[:1]); err != nil {
		t.Fatalf("append: %v", err)
	}
	got, err := tr.Read(3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 3 || got[2].Key != "a" || got[0].Ints[1] != -2 {
		t.Fatalf("read back %+v", got)
	}
	words, err := tr.Words(3)
	if err != nil {
		t.Fatalf("words: %v", err)
	}
	if want := mpc.WordsOf(got); words != want {
		t.Fatalf("words = %d, want %d", words, want)
	}
	// Empty write clears.
	if err := tr.Write(3, nil); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if got, _ := tr.Read(3); len(got) != 0 {
		t.Fatalf("store not cleared: %+v", got)
	}
}

// testPoints builds a deterministic integer point set matching the
// pipeline's lattice-input assumption.
func testPoints(n, d int, seed uint64) [][]float64 {
	r := rng.New(seed)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = float64(r.Intn(64))
		}
	}
	return pts
}

func treeBytes(t *testing.T, cluster *mpc.Cluster, pts [][]float64, opt core.PipelineOptions) []byte {
	t.Helper()
	tree, _, err := core.EmbedPipeline(cluster, pts, opt)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// TestPipelineBitIdenticalAcrossBackends is the tentpole contract: the
// full Theorem-1 pipeline over the TCP transport produces a byte-for-byte
// identical tree — and identical model metrics — to the in-process
// simulator.
func TestPipelineBitIdenticalAcrossBackends(t *testing.T) {
	pts := testPoints(48, 6, 7)
	popt := core.PipelineOptions{Seed: 11}
	cfg := mpc.Config{Machines: 8, CapWords: 1 << 20}

	simCluster := mpc.New(cfg)
	simTree := treeBytes(t, simCluster, pts, popt)

	_, addrs := startWorkers(t, 3)
	tr, err := Dial(Config{Addrs: addrs, Machines: cfg.Machines, Retry: fastRetry(2)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()
	tcpCluster := mpc.NewWithTransport(cfg, tr)
	tcpTree := treeBytes(t, tcpCluster, pts, popt)

	if !bytes.Equal(simTree, tcpTree) {
		t.Fatalf("trees differ across backends: sim %d bytes, tcp %d bytes", len(simTree), len(tcpTree))
	}
	if sm, tm := simCluster.Metrics(), tcpCluster.Metrics(); sm != tm {
		t.Fatalf("metrics differ across backends: sim %+v, tcp %+v", sm, tm)
	}
}

// TestWorkerDeathRecovery kills worker 1 of 3 at each sequenced op it
// serves in a fault-free resilient embedding that keeps its path records
// (in-process death: listener and connection close and stay closed), with
// the round trace off and on. At every die point, its first op included,
// resilient execution must recover a tree and a path checkpoint
// bit-identical to the fault-free simulator run's, with the degradation
// visible in the transport stats. No stage reads a store at entry, so
// every op a worker serves belongs to a step the driver retries: the
// tree build and path emission, then, as worker 1's last 4 ops, the read
// of the path records on its machines (1, 4, 7 and 10: machines go to
// workers round-robin, so workers 0 and 1 host 4 of the 11 and worker 2
// hosts 3) that ends the embed stage's step. The trace reads no store of
// its own, so it moves no die point and loses no transport error.
func TestWorkerDeathRecovery(t *testing.T) {
	pts := testPoints(48, 6, 7)
	popt := core.PipelineOptions{Seed: 11, Resilient: true}
	cfg := mpc.Config{Machines: 11, CapWords: 1 << 20}

	for _, traced := range []bool{false, true} {
		sim := mpc.New(cfg)
		if traced {
			sim.EnableTrace()
		}
		simTree, simPaths := pathsBytes(t, sim, pts, popt)
		_, cluster, workers := dialCluster(t, cfg, 0, traced)
		tree, paths := pathsBytes(t, cluster, pts, popt)
		if simPaths == nil || !bytes.Equal(simTree, tree) || !reflect.DeepEqual(simPaths, paths) {
			t.Fatalf("fault-free tcp tree or path checkpoint differs from the simulator's")
		}
		for dieAfter := 1; dieAfter <= workers[1].served(); dieAfter++ {
			t.Run(fmt.Sprintf("trace=%v/die-after=%d", traced, dieAfter), func(t *testing.T) {
				tr, cluster, _ := dialCluster(t, cfg, dieAfter, traced)
				tree, paths := pathsBytes(t, cluster, pts, popt)
				if !bytes.Equal(simTree, tree) {
					t.Fatalf("recovered tree differs from fault-free simulator tree")
				}
				if !reflect.DeepEqual(simPaths, paths) {
					t.Fatalf("recovered path checkpoint differs from fault-free simulator checkpoint")
				}
				checkOneDeath(t, tr, cluster)
			})
		}
	}
}

// pathsBytes runs EmbedPaths on cluster and returns the serialized tree
// and the path checkpoint.
func pathsBytes(t *testing.T, cluster *mpc.Cluster, pts [][]float64, opt core.PipelineOptions) ([]byte, *mpc.Checkpoint) {
	t.Helper()
	tree, _, paths, err := core.EmbedPaths(cluster, pts, opt)
	if err != nil {
		t.Fatalf("embed paths: %v", err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes(), paths
}

// dialCluster starts 3 workers, worker 1 armed to die at its dieAfter-th
// op (0 = never), and returns the transport, a cluster over it and the
// workers.
func dialCluster(t *testing.T, cfg mpc.Config, dieAfter int, traced bool) (*Transport, *mpc.Cluster, []*Worker) {
	workers, addrs := startWorkers(t, 3)
	tr, err := Dial(Config{Addrs: addrs, Machines: cfg.Machines, Retry: fastRetry(3)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	workers[1].SetDieAfter(dieAfter)
	cluster := mpc.NewWithTransport(cfg, tr)
	if traced {
		cluster.EnableTrace()
	}
	return tr, cluster, workers
}

// served returns the number of sequenced ops w has processed.
func (w *Worker) served() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ops
}

// checkOneDeath requires the run to have lost exactly one worker, remapped
// its machines onto the 2 left and restored a rollback point.
func checkOneDeath(t *testing.T, tr *Transport, cluster *mpc.Cluster) {
	t.Helper()
	if st := tr.Stats(); st.DeadWorkers != 1 || st.Remapped == 0 || tr.LiveWorkers() != 2 {
		t.Fatalf("want 1 dead worker, its machines remapped and 2 live: stats %+v, %d live",
			st, tr.LiveWorkers())
	}
	if rec := cluster.Recovery(); rec.Restores == 0 {
		t.Fatalf("recovery did not restore a rollback point: %+v", rec)
	}
}

// A fault-free resilient pipeline, FJLT stage included, issues exactly
// the transport ops of the same run without Resilient: no stage reads its
// stores at entry.
func TestResilientRunAddsNoTransportOps(t *testing.T) {
	pts := testPoints(32, 200, 9)
	cfg := mpc.Config{Machines: 8, CapWords: 1 << 22}
	var ops [2]int
	for i, resilient := range []bool{false, true} {
		tr, cluster, _ := dialCluster(t, cfg, 0, false)
		tree, info, err := core.EmbedPipeline(cluster, pts, core.PipelineOptions{Seed: 5, CK: 1, Resilient: resilient})
		if err != nil || !info.UsedFJLT {
			t.Fatalf("resilient=%v: tree %v, FJLT %v, err %v", resilient, tree != nil, info != nil && info.UsedFJLT, err)
		}
		ops[i] = tr.Stats().Ops
		if rec := cluster.Recovery(); resilient && (rec.Checkpoints != 2 || rec.CheckpointWords != 0) {
			t.Fatalf("recovery %+v: want one rollback point per stage and no store read", rec)
		}
	}
	if ops[0] != ops[1] {
		t.Fatalf("transport ops: %d without Resilient, %d with", ops[0], ops[1])
	}
}

// TestQueryWorkerDeathRecovery kills worker 1 of 3 at each op it serves
// from the read of the path records at the end of the embed stage to the
// end of one EMD, one densest-ball and one MST query on a resilient
// distributed embedding. At every die point all three answers must equal
// the fault-free run's bit for bit, and so must the cluster's meters
// after the queries: a failed query rolls back to the path records read
// once at embed time and to the meters at its own entry.
func TestQueryWorkerDeathRecovery(t *testing.T) {
	pts := testPoints(40, 6, 13)
	cfg := mpc.Config{Machines: 8, CapWords: 1 << 20}
	n := len(pts)
	mu := make([]float64, n)
	nu := make([]float64, n)
	for i := 0; i < n/2; i++ {
		mu[i] = 1
		nu[n-1-i] = 1
	}
	type answers struct {
		emd, mst float64
		ball     mpcapps.BallResult
		m        mpc.Metrics
	}
	// queries embeds pts with the path records kept and runs the three
	// queries, returning the answers and worker 1's op count after the
	// embed.
	queries := func(t *testing.T, cluster *mpc.Cluster, w1 *Worker) (answers, int) {
		t.Helper()
		tree, _, paths, err := core.EmbedPaths(cluster, pts, core.PipelineOptions{Seed: 3, Resilient: true})
		if err != nil {
			t.Fatalf("embed: %v", err)
		}
		embedOps := w1.served()
		e := mpcapps.New(cluster, tree, paths, &resilient.Options{})
		var a answers
		if a.emd, err = e.EMD(mu, nu); err != nil {
			t.Fatalf("emd: %v", err)
		}
		if a.ball, err = e.DensestBall(4, 64); err != nil {
			t.Fatalf("densest ball: %v", err)
		}
		if a.mst, err = e.MSTCost(); err != nil {
			t.Fatalf("mst: %v", err)
		}
		a.m = cluster.Metrics()
		return a, embedOps
	}
	_, cluster, workers := dialCluster(t, cfg, 0, false)
	want, embedOps := queries(t, cluster, workers[1])
	// Worker 1 hosts machines 1, 4 and 7: its last 3 embed ops read them
	// into the path checkpoint.
	for dieAfter := embedOps - 2; dieAfter <= workers[1].served(); dieAfter++ {
		t.Run(fmt.Sprintf("die-after=%d", dieAfter), func(t *testing.T) {
			tr, cluster, workers := dialCluster(t, cfg, dieAfter, false)
			if got, _ := queries(t, cluster, workers[1]); got != want {
				t.Fatalf("answers and meters %+v, fault-free %+v", got, want)
			}
			checkOneDeath(t, tr, cluster)
		})
	}
}

// TestAllWorkersDeadIsTerminal checks the no-survivors path: the failure
// stays latched and the pipeline reports a transport-class error rather
// than hanging or succeeding vacuously.
func TestAllWorkersDeadIsTerminal(t *testing.T) {
	workers, addrs := startWorkers(t, 1)
	tr, err := Dial(Config{Addrs: addrs, Machines: 2, Retry: fastRetry(4)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()
	if err := tr.Write(0, []mpc.Record{{Key: "x"}}); err != nil {
		t.Fatalf("write: %v", err)
	}
	workers[0].SetDieAfter(1) // next sequenced op kills the only worker

	_, err = tr.Read(0)
	if err == nil {
		// The op that tripped the trigger may have died before failing;
		// the next certainly fails.
		_, err = tr.Read(0)
	}
	if !errors.Is(err, mpc.ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport class", err)
	}
	if tr.LiveWorkers() != 0 {
		t.Fatalf("LiveWorkers = %d, want 0", tr.LiveWorkers())
	}
	if _, err := tr.Read(1); !errors.Is(err, mpc.ErrTransport) {
		t.Fatalf("op on dead cluster = %v, want ErrTransport class", err)
	}
}

// TestCheckpointHealsRemappedMachines exercises the restore-as-healing
// contract directly at the transport level, without the pipeline.
func TestCheckpointHealsRemappedMachines(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	tr, err := Dial(Config{Addrs: addrs, Machines: 4, Retry: fastRetry(5)})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer tr.Close()
	cluster := mpc.NewWithTransport(mpc.Config{Machines: 4, CapWords: 1 << 16}, tr)

	recs := []mpc.Record{
		{Key: "p0", Ints: []int64{0}}, {Key: "p1", Ints: []int64{1}},
		{Key: "p2", Ints: []int64{2}}, {Key: "p3", Ints: []int64{3}},
	}
	if err := cluster.Distribute(recs); err != nil {
		t.Fatalf("distribute: %v", err)
	}
	cp, err := cluster.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Kill worker 1 (hosts machines 1 and 3) and provoke the failure.
	workers[1].SetDieAfter(1)
	err = cluster.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		return local
	})
	if !errors.Is(err, mpc.ErrTransport) {
		t.Fatalf("round after worker death = %v, want ErrTransport class", err)
	}
	if !errors.Is(cluster.Err(), mpc.ErrTransport) {
		t.Fatalf("failure not latched: %v", cluster.Err())
	}

	// Restore: rewrites all four machines through the healed assignment.
	cluster.Restore(cp)
	if cluster.Err() != nil {
		t.Fatalf("restore left failure latched: %v", cluster.Err())
	}
	got, err := cluster.Collect()
	if err != nil {
		t.Fatalf("collect after restore: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("collected %d records after restore, want 4", len(got))
	}
	keys := map[string]bool{}
	for _, r := range got {
		keys[r.Key] = true
	}
	for _, want := range []string{"p0", "p1", "p2", "p3"} {
		if !keys[want] {
			t.Fatalf("record %s lost across death+restore (got %v)", want, keys)
		}
	}
}

// TestWireDedup sends the same sequenced Append frame twice over a raw
// connection and checks the worker applies it once, answering the replay
// from its response cache.
func TestWireDedup(t *testing.T) {
	workers, addrs := startWorkers(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	payload := mpc.EncodeRecords([]mpc.Record{{Key: "dup", Ints: []int64{42}}})
	req := Frame{Op: OpAppend, Seq: 9, Machine: 0, Payload: payload}
	for i := 0; i < 2; i++ {
		if err := WriteFrame(conn, req); err != nil {
			t.Fatalf("write frame %d: %v", i, err)
		}
		resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("read response %d: %v", i, err)
		}
		if resp.Op != RespOK || resp.Seq != 9 {
			t.Fatalf("response %d = %s seq %d, want ok seq 9", i, resp.Op, resp.Seq)
		}
	}
	if st := workers[0].Store(0); len(st) != 1 {
		t.Fatalf("duplicate frame applied %d times, want 1", len(st))
	}

	// A stale seq (below the high-water mark) is refused.
	stale := Frame{Op: OpAppend, Seq: 3, Machine: 0, Payload: payload}
	if err := WriteFrame(conn, stale); err != nil {
		t.Fatalf("write stale: %v", err)
	}
	resp, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("read stale response: %v", err)
	}
	if resp.Op != RespErr {
		t.Fatalf("stale seq answered %s, want err", resp.Op)
	}
	if st := workers[0].Store(0); len(st) != 1 {
		t.Fatalf("stale frame mutated the store (%d records)", len(st))
	}
}

// TestWireCorruptionDetected flips a payload byte in transit and checks
// the receiver rejects the frame at the CRC.
func TestWireCorruptionDetected(t *testing.T) {
	f := Frame{Op: OpWrite, Seq: 5, Machine: 2,
		Payload: mpc.EncodeRecords([]mpc.Record{{Key: "x", Data: []float64{1.5}}})}
	buf := AppendFrame(nil, f)
	buf[headerLen+3] ^= 0x40
	_, err := ReadFrame(bytes.NewReader(buf))
	if !errors.Is(err, ErrWire) {
		t.Fatalf("corrupt frame decoded: %v", err)
	}

	// Untouched frames round-trip.
	clean := AppendFrame(nil, f)
	got, err := ReadFrame(bytes.NewReader(clean))
	if err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	if got.Op != f.Op || got.Seq != f.Seq || got.Machine != f.Machine || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("frame round-trip mismatch: %+v vs %+v", got, f)
	}
}
