package mpcnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mpctree/internal/core"
	"mpctree/internal/mpc"
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
// serves in a fault-free run (in-process death: listener and connection
// close and stay closed), with the round trace off and on. From its
// 4th op on, resilient execution must recover a tree bit-identical to
// the fault-free simulator run, with the degradation visible in the
// transport stats. Its first 3 ops are the embed stage's entry
// checkpoint reading worker 1's machines (1, 4 and 7: machines go to
// workers round-robin); a death there is not recovered, since the
// snapshot itself lacks the dead worker's stores, so the run must fail
// without a tree and with an error that names the transport failure and
// the worker. The trace reads no store of its own, so it moves no die
// point and loses no transport error.
func TestWorkerDeathRecovery(t *testing.T) {
	pts := testPoints(48, 6, 7)
	popt := core.PipelineOptions{Seed: 11, Resilient: true}
	cfg := mpc.Config{Machines: 8, CapWords: 1 << 20}
	simTree := treeBytes(t, mpc.New(cfg), pts, popt)

	// dial starts 3 workers, worker 1 armed to die at its dieAfter-th op
	// (0 = never), and returns the transport, a cluster over it and
	// worker 1.
	dial := func(t *testing.T, dieAfter int, traced bool) (*Transport, *mpc.Cluster, *Worker) {
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
		return tr, cluster, workers[1]
	}
	for _, traced := range []bool{false, true} {
		_, cluster, w1 := dial(t, 0, traced)
		if tree := treeBytes(t, cluster, pts, popt); !bytes.Equal(simTree, tree) {
			t.Fatalf("fault-free tcp tree differs from the simulator tree")
		}
		w1.mu.Lock()
		ops := w1.ops
		w1.mu.Unlock()
		for dieAfter := 1; dieAfter <= ops; dieAfter++ {
			t.Run(fmt.Sprintf("trace=%v/die-after=%d", traced, dieAfter), func(t *testing.T) {
				tr, cluster, _ := dial(t, dieAfter, traced)
				if dieAfter <= 3 {
					tree, _, err := core.EmbedPipeline(cluster, pts, popt)
					if tree != nil || !errors.Is(err, mpc.ErrTransport) || !strings.Contains(err.Error(), "worker 1 (") {
						t.Fatalf("death in the entry checkpoint gave a tree (%v) and error %v; want no tree and a transport error naming worker 1",
							tree != nil, err)
					}
					return
				}
				if tree := treeBytes(t, cluster, pts, popt); !bytes.Equal(simTree, tree) {
					t.Fatalf("recovered tree differs from fault-free simulator tree")
				}
				if st := tr.Stats(); st.DeadWorkers != 1 || st.Remapped == 0 || tr.LiveWorkers() != 2 {
					t.Fatalf("want 1 dead worker, its machines remapped and 2 live: stats %+v, %d live",
						st, tr.LiveWorkers())
				}
				if rec := cluster.Recovery(); rec.Restores == 0 {
					t.Fatalf("recovery did not restore a checkpoint: %+v", rec)
				}
			})
		}
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
	cp := cluster.Checkpoint()

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
