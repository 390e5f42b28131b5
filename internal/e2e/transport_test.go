package e2e

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpctree/internal/core"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcnet"
	"mpctree/internal/rng"
)

// TestTransportSmoke is the crash drill over the TCP transport. The
// tree is embedded once on the in-process simulator, then again over 4
// real mpcworker processes of which one SIGKILLs itself mid-run
// (-die-after). The run must recover by retry, remap onto the survivors
// and checkpointed replay, and its tree must equal the simulator's byte
// for byte; its output must show the retries, the death, the remapped
// machines, the 3 workers left and the restores, so a run that never
// lost a worker fails rather than passing vacuously. The same drill
// checks fleet observability: each worker serves its own /metrics and
// /trace/requests, the coordinator re-exports the series as worker_* and
// fleet_* with the dead worker visibly down and stale, and the merged
// coordinator+worker timeline has a row per process, the coordinator's
// wire spans, and worker service spans that name their parent_span. A
// first, plain run loses its worker at that worker's first op: no stage
// reads its stores at entry, so that loss is recovered like any other.
func TestTransportSmoke(t *testing.T) {
	dir := scratch(t)
	shape := []string{"-gen", "clusters", "-n", "200", "-d", "8", "-mpc", "-machines", "8", "-seed", "5"}
	run(t, dir, "treembed", append(shape, "-save", "sim.tree")...)
	sim, err := os.ReadFile(filepath.Join(dir, "sim.tree"))
	if err != nil {
		t.Fatal(err)
	}
	// dyingFleet starts 4 mpcworkers, worker 2 with -die-after dieAfter, and
	// returns their addresses and observability URLs.
	dyingFleet := func(dieAfter string) (addrs, obsURLs []string) {
		for i := 0; i < 4; i++ {
			args := []string{"-listen", "127.0.0.1:0"}
			if i == 2 {
				args = append(args, "-die-after", dieAfter)
			}
			w := start(t, dir, "mpcworker", args...)
			addrs = append(addrs, w.await(t, &w.stdout, `MPCNET LISTEN (\S+)`)[1])
			obsURLs = append(obsURLs, w.await(t, &w.stdout, `MPCNET OBS (\S+)`)[1])
		}
		return addrs, obsURLs
	}
	// sameTree requires the tree saved as name to be the simulator's.
	sameTree := func(name string) {
		tcp, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sim, tcp) {
			t.Fatalf("%s (%d bytes) differs from the simulator tree (%d bytes)", name, len(tcp), len(sim))
		}
	}

	addrs, _ := dyingFleet("1")
	first := run(t, dir, "treembed", append(shape,
		"-transport", "tcp", "-transport-addrs", strings.Join(addrs, ","), "-save", "first.tree")...)
	mustMatch(t, "treembed's output", first.stdout.String(),
		`transport: tcp, \d+ ops, .*1 dead workers, [1-9]\d* machines remapped, 3 live workers,`,
		`recovery: .* [1-9][0-9]* restores`)
	sameTree("first.tree")

	addrs, obsURLs := dyingFleet("30")

	// -http makes treembed linger after the run, so the finished run's
	// aggregated fleet series stay scrapeable.
	embed := start(t, dir, "treembed", append(shape,
		"-transport", "tcp", "-transport-addrs", strings.Join(addrs, ","),
		"-transport-obs", strings.Join(obsURLs, ","), "-http", "127.0.0.1:0",
		"-trace-out", "fleet-trace.json", "-trace", "-save", "tcp.tree")...)
	embed.await(t, &embed.stdout, `serving on`)
	coord := embed.await(t, &embed.stdout, `(?m)^observability: (http://\S+)`)[1]
	mustMatch(t, "treembed's output", embed.stdout.String(),
		`transport: tcp, \d+ ops, [1-9]\d* retries, \d+ redials, 1 dead workers, [1-9]\d* machines remapped, 3 live workers,`,
		`recovery: .* [1-9][0-9]* restores`)

	sameTree("tcp.tree")

	w0 := string(get(t, obsURLs[0]+"/metrics"))
	mustMatch(t, "worker 0's /metrics", w0, `(?m)^mpcworker_ops_total\{`, `(?m)^build_info\{`)
	mustMatch(t, "worker 0's /trace/requests", string(get(t, obsURLs[0]+"/trace/requests")), `"parent_span":`)

	checkMetrics(t, coord, "build_info", "mpcnet_ops_total", "mpcnet_op_seconds", "worker_up",
		"worker_ops_total", "fleet_workers_up", "fleet_peak_resident_words")
	checkUp(t, coord, "worker_up", 3)
	// The SIGKILLed worker (index 2) must be visibly dead and stale, not
	// silently frozen: up 0 and a growing scrape age.
	poll(t, func() error {
		text := string(get(t, coord+"/metrics"))
		if !strings.Contains(text, "\nworker_up{worker=\"2\"} 0\n") {
			return fmt.Errorf("worker 2 is not reported down:\n%s", text)
		}
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, `worker_scrape_age_seconds{worker="2"} `); ok {
				if age, err := strconv.ParseFloat(v, 64); err == nil && age > 0 {
					return nil
				}
			}
		}
		return fmt.Errorf("worker 2's scrape age is not above 0:\n%s", text)
	})

	tl, doc := readTimeline(t, filepath.Join(dir, "fleet-trace.json"))
	if tl.DisplayTimeUnit != "ms" {
		t.Fatalf("timeline displayTimeUnit = %q, want ms:\n%s", tl.DisplayTimeUnit, doc)
	}
	rows := map[int]string{}
	workers := 0
	for _, e := range tl.TraceEvents {
		if e.Name == "process_name" {
			name, _ := e.Args["name"].(string)
			rows[e.Pid] = name
			if strings.HasPrefix(name, "worker ") {
				workers++
			}
		}
	}
	// Each live worker's row holds its last traced ops, one track each,
	// every one naming as parent_span the coordinator attempt span that
	// sent it; the dead worker appears as an empty row.
	attempts := map[string]bool{}
	for _, e := range tl.TraceEvents {
		if _, ok := e.Args["attempt"]; ok && e.Ph == "X" && rows[e.Pid] == "coordinator" {
			id, _ := e.Args["span_id"].(string)
			attempts[id] = true
		}
	}
	service := 0
	for _, e := range tl.TraceEvents {
		if parent, _ := e.Args["parent_span"].(string); e.Ph == "X" && strings.HasPrefix(rows[e.Pid], "worker ") && attempts[parent] {
			service++
		}
	}
	if rows[0] != "coordinator" || workers != 4 || len(attempts) == 0 || service == 0 {
		t.Fatalf("timeline rows %v (want the coordinator first and 4 workers), %d coordinator wire spans, %d worker spans naming one as parent_span:\n%s",
			rows, len(attempts), service, doc)
	}
	embed.stop(t)
}

// TestSIGKILLRecoveryBitIdentical is the crash drill from the library
// side: the resilient pipeline runs in the test process over
// mpcnet.Dial to 4 real mpcworker processes, one of which SIGKILLs
// itself mid-run (-die-after). The tree must equal the fault-free
// in-process simulator's byte for byte, and the transport's own
// counters must show the death and the recovery: exactly 1 dead worker
// and 3 live ones, retries, remapped machines and a checkpoint restore.
func TestSIGKILLRecoveryBitIdentical(t *testing.T) {
	dir := scratch(t)
	r := rng.New(7)
	pts := make([][]float64, 48)
	for i := range pts {
		pts[i] = make([]float64, 6)
		for j := range pts[i] {
			pts[i][j] = float64(r.Intn(64))
		}
	}
	popt := core.PipelineOptions{Seed: 11, Resilient: true}
	cfg := mpc.Config{Machines: 8, CapWords: 1 << 20}
	treeBytes := func(cluster *mpc.Cluster) []byte {
		t.Helper()
		tree, _, err := core.EmbedPipeline(cluster, pts, popt)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		var buf bytes.Buffer
		if _, err := tree.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sim := treeBytes(mpc.New(cfg))

	var addrs []string
	for i := 0; i < 4; i++ {
		args := []string{"-listen", "127.0.0.1:0"}
		if i == 2 {
			args = append(args, "-die-after", "30")
		}
		w := start(t, dir, "mpcworker", args...)
		addrs = append(addrs, w.await(t, &w.stdout, `MPCNET LISTEN (\S+)`)[1])
	}
	tr, err := mpcnet.Dial(mpcnet.Config{Addrs: addrs, Machines: cfg.Machines, Retry: mpcnet.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 8,
	}})
	if err != nil {
		t.Fatalf("dial the workers: %v", err)
	}
	defer tr.Close()
	cluster := mpc.NewWithTransport(cfg, tr)
	if tcp := treeBytes(cluster); !bytes.Equal(sim, tcp) {
		t.Fatalf("tree after the SIGKILL recovery (%d bytes) differs from the simulator tree (%d bytes)", len(tcp), len(sim))
	}
	// Recovery is remap plus checkpointed replay, not reconnection: a
	// SIGKILLed process never comes back, so the retry and remap
	// counters show the loss.
	st := tr.Stats()
	if st.DeadWorkers != 1 || st.Retries == 0 || st.Remapped == 0 {
		t.Fatalf("stats %+v: want 1 dead worker, retries and remapped machines", st)
	}
	if rec := cluster.Recovery(); rec.Restores == 0 {
		t.Fatalf("no checkpoint restore recorded: %+v", rec)
	}
	if n := tr.LiveWorkers(); n != 3 {
		t.Fatalf("LiveWorkers = %d, want 3", n)
	}
}

// TestTransportSpawn runs the TCP transport the way an operator without
// a fleet does: treembed spawns its own 2 mpcworker processes
// (-transport-spawn), reads their announced addresses, embeds over them
// and kills them when it exits. The tree must equal the simulator's byte
// for byte.
func TestTransportSpawn(t *testing.T) {
	dir := scratch(t)
	shape := []string{"-gen", "clusters", "-n", "200", "-d", "8", "-mpc", "-machines", "8", "-seed", "5"}
	run(t, dir, "treembed", append(shape, "-save", "sim.tree")...)
	embed := run(t, dir, "treembed", append(shape, "-transport", "tcp", "-transport-spawn", "2",
		"-transport-worker-bin", filepath.Join(binDir, "mpcworker"), "-save", "spawn.tree")...)
	mustMatch(t, "treembed's output", embed.stdout.String(),
		`transport: spawned 2 workers \(127\.0\.0\.1:\d+, 127\.0\.0\.1:\d+\)`,
		`transport: tcp, [1-9]\d* ops, .*0 dead workers, 0 machines remapped, 2 live workers,`)

	sim, err := os.ReadFile(filepath.Join(dir, "sim.tree"))
	if err != nil {
		t.Fatal(err)
	}
	spawned, err := os.ReadFile(filepath.Join(dir, "spawn.tree"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sim, spawned) {
		t.Fatalf("tree over spawned workers (%d bytes) differs from the simulator tree (%d bytes)", len(spawned), len(sim))
	}
}
