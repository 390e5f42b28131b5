package experiments

import (
	"runtime"
	"testing"
)

// Whole-experiment width invariance: the rendered Result (tables, checks,
// notes — every digit) must be identical at GOMAXPROCS=1 and
// GOMAXPROCS=8. Experiments draw all randomness serially; the fan-outs
// only spread pure compute, so the report text is a complete fingerprint
// of the run. The subtests change the process-wide GOMAXPROCS, so they
// run one at a time.
func TestExperimentsWorkerInvariant(t *testing.T) {
	// One experiment per parallelized subsystem: E02 (sequential embeds +
	// distortion stats), E11 (hybrid sweep over r), E15 (Algorithm 2
	// resident paths), E16 (full pipeline under faults).
	ids := []string{"E02-Thm2", "E11-Ablate", "E15-Cor1MPC", "E16-Chaos"}
	if testing.Short() {
		ids = []string{"E02-Thm2", "E15-Cor1MPC"}
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			run := func(procs int) string {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				res, err := Run(id, Config{Quick: true, Seed: 424242})
				if err != nil {
					t.Fatal(err)
				}
				return res.String()
			}
			want := run(1)
			if got := run(8); got != want {
				t.Fatalf("%s: report differs between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=8 ---\n%s", id, want, got)
			}
		})
	}
}
