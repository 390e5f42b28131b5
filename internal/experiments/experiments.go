// Package experiments reproduces every quantitative claim of the paper as
// a runnable experiment. The paper is theory-first — its "tables and
// figures" are the theorem statements and Figure 1 — so each experiment
// regenerates one claim as a measured table plus pass/fail checks on the
// claim's *shape* (who wins, growth exponents, constant round counts),
// not on absolute constants.
//
// The experiment index matches DESIGN.md §4 and EXPERIMENTS.md:
//
//	E1-Fig1    geometry of one level of grid/ball/hybrid partitioning
//	E2-Thm2    sequential hybrid distortion O(√(d·r)·logΔ) + domination
//	E3-Lem1    separation probability ≤ O(√d·dist/w), independent of r
//	E4-Lem4/5  sphere/ball equator-band probability O(√d·D/w)
//	E5-Lem6/7  grids needed to cover = 2^Θ(k log k)·log(n/δ)
//	E6-Thm3    MPC FJLT: (1±ξ) distortion, O(1) rounds, near-linear space
//	E7-Thm1    hybrid beats grid distortion; O(1) rounds; scalable memory
//	E8-MST     Corollary 1: approximate minimum spanning tree
//	E9-EMD     Corollary 1: approximate Earth-Mover distance
//	E10-DB     Corollary 1: bicriteria densest ball
//	E11-Ablate the r trade-off: local memory vs distortion
//	E12-Cluster  extension: single-linkage + k-center via embeddings
//	E13-Cycle    the intro's cycle metric: Ω(n) per tree vs polylog expected
//	E14-KMedian  extension: FRT's k-median, tree-seeded local search
//	E15-Cor1MPC  Corollary 1 distributed: O(1)-round on-cluster queries
//	E16-Chaos    robustness: Theorem-1 pipeline under injected faults —
//	             recovery cost, and bit-identity with the fault-free run
//	E17-Quality  telemetry: the online auditor agrees with the offline
//	             distortion measurement and never perturbs the embedding
//
// Each Run function takes a Config and returns a Result whose Checks are
// asserted by the test suite and whose Tables are printed by
// cmd/mpcbench.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mpctree/internal/mpc"
	"mpctree/internal/quality"
	"mpctree/internal/stats"
)

// Config controls experiment effort.
type Config struct {
	// Quick shrinks workloads for CI/tests; the full-size run is the one
	// EXPERIMENTS.md records.
	Quick bool
	// Seed makes the whole experiment deterministic.
	Seed uint64

	// Faults is the per-round, per-class fault-injection probability used
	// by the chaos experiment (E16); 0 keeps E16's built-in rate ladder.
	// Cluster-level experiments other than E16 run fault-free regardless.
	Faults float64
	// FaultSeed seeds the injection schedule independently of Seed;
	// 0 derives it from Seed.
	FaultSeed uint64
	// MaxRetries overrides the resilient driver's per-stage retry budget
	// in E16; 0 keeps the experiment's default.
	MaxRetries int

	// OnCluster, if set, observes every simulated cluster an experiment
	// creates, right after creation and before any records are loaded —
	// the hook cmd/mpcbench uses to attach instrumentation
	// (Cluster.Instrument) and per-round tracing (Cluster.EnableTrace).
	// Observational hooks only: the hook must not change cluster behavior.
	OnCluster func(*mpc.Cluster)

	// NewTransport, if set, supplies the record plane backing every
	// cluster an experiment creates (cmd/mpcbench -transport=tcp routes a
	// worker fleet in through here). The returned transport must back
	// exactly cfg.Machines machines and start with empty stores; the
	// factory owns error handling — experiments treat cluster creation as
	// infallible. Nil keeps the in-process simulator. Results are
	// bit-identical across backends; only the meters and the wall clock
	// differ.
	NewTransport func(cfg mpc.Config) mpc.Transport

	// Quality, if non-nil, receives the audit reports experiments produce
	// (E17 publishes through it) so a -http mpcbench run exposes
	// quality_* series live. Observational only.
	Quality *quality.Collector
}

// NewCluster creates a simulated cluster and runs the OnCluster hook on
// it. Experiments must create clusters through this method so -http /
// -trace instrumentation reaches every run.
func (c Config) NewCluster(cfg mpc.Config) *mpc.Cluster {
	var cl *mpc.Cluster
	if c.NewTransport != nil {
		cl = mpc.NewWithTransport(cfg, c.NewTransport(cfg))
	} else {
		cl = mpc.New(cfg)
	}
	if c.OnCluster != nil {
		c.OnCluster(cl)
	}
	return cl
}

// Check is one asserted property of a claim's shape.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Claim  string // the paper claim being reproduced
	Tables []*stats.Table
	Checks []Check
	Notes  []string
}

// Failed returns the names of failing checks.
func (r *Result) Failed() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, fmt.Sprintf("%s: %s", c.Name, c.Detail))
		}
	}
	return out
}

// String renders the result for the CLI.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n%s\n\n", r.ID, r.Claim)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s — %s\n", status, c.Name, c.Detail)
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(cfg Config) (*Result, error)

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(cfg)
}

// check builds a Check from a condition.
func check(name string, pass bool, format string, args ...any) Check {
	return Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}
