package e2e

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestTransportSmoke is the crash drill over the TCP transport. The
// tree is embedded once on the in-process simulator, then again over 4
// real mpcworker processes of which one SIGKILLs itself mid-run
// (-die-after). The run must recover by retry, remap onto the survivors
// and checkpointed replay, and its tree must equal the simulator's byte
// for byte; its output must show the death and the restores, so a run
// that never lost a worker fails rather than passing vacuously. The same
// drill checks fleet observability: each worker serves its own
// /metrics, the coordinator re-exports them as worker_* and fleet_*
// series with the dead worker visibly down and stale, and the merged
// coordinator+worker timeline has a row per process and the wire spans.
func TestTransportSmoke(t *testing.T) {
	dir := scratch(t)
	shape := []string{"-gen", "clusters", "-n", "200", "-d", "8", "-mpc", "-machines", "8", "-seed", "5"}
	run(t, dir, "treembed", append(shape, "-save", "sim.tree")...)

	var addrs, obsURLs []string
	for i := 0; i < 4; i++ {
		args := []string{"-listen", "127.0.0.1:0"}
		if i == 2 {
			args = append(args, "-die-after", "30")
		}
		w := start(t, dir, "mpcworker", args...)
		addrs = append(addrs, w.await(t, &w.stdout, `MPCNET LISTEN (\S+)`)[1])
		obsURLs = append(obsURLs, w.await(t, &w.stdout, `MPCNET OBS (\S+)`)[1])
	}

	// -http makes treembed linger after the run, so the finished run's
	// aggregated fleet series stay scrapeable.
	embed := start(t, dir, "treembed", append(shape,
		"-transport", "tcp", "-transport-addrs", strings.Join(addrs, ","),
		"-transport-obs", strings.Join(obsURLs, ","), "-http", "127.0.0.1:0",
		"-trace-out", "fleet-trace.json", "-trace", "-save", "tcp.tree")...)
	embed.await(t, &embed.stdout, `serving on`)
	coord := embed.await(t, &embed.stdout, `(?m)^observability: (http://\S+)`)[1]
	mustMatch(t, "treembed's output", embed.stdout.String(),
		`transport: tcp, .*1 dead workers`, `recovery: .* [1-9][0-9]* restores`)

	sim, err := os.ReadFile(filepath.Join(dir, "sim.tree"))
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := os.ReadFile(filepath.Join(dir, "tcp.tree"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sim, tcp) {
		t.Fatalf("tcp tree (%d bytes) differs from the simulator tree (%d bytes)", len(tcp), len(sim))
	}

	w0 := string(get(t, obsURLs[0]+"/metrics"))
	mustMatch(t, "worker 0's /metrics", w0, `(?m)^mpcworker_ops_total\{`, `(?m)^build_info\{`)

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
	var rows []string
	workers, spans, wire := 0, 0, 0
	for _, e := range tl.TraceEvents {
		if e.Name == "process_name" {
			name, _ := e.Args["name"].(string)
			rows = append(rows, name)
			if strings.HasPrefix(name, "worker ") {
				workers++
			}
		}
		if e.Ph == "X" {
			spans++
			_, parent := e.Args["parent_span"]
			_, attempt := e.Args["attempt"]
			if parent || attempt {
				wire++
			}
		}
	}
	// The dead worker appears as an empty row.
	if !slices.Contains(rows, "coordinator") || workers != 4 || spans == 0 || wire == 0 {
		t.Fatalf("timeline rows %q (%d workers, want 4 and a coordinator), %d spans, %d wire or service spans:\n%s",
			rows, workers, spans, wire, doc)
	}
	embed.stop(t)
}
