package e2e

import (
	"testing"

	"mpctree/internal/obs"
)

// TestObsSmoke runs the resilient MPC pipeline under injected faults
// with its debug server up, and checks the endpoints from the consumer
// side while the finished run lingers: /metrics parses as Prometheus
// text and carries the cost-model, chaos, fan-out and quality series
// (quality_separation_events_total appears only once -audit's final
// audit has run), /debug/vars is JSON, and /trace is a span tree.
func TestObsSmoke(t *testing.T) {
	dir := scratch(t)
	embed := start(t, dir, "treembed", "-gen", "uniform", "-n", "256", "-d", "200",
		"-mpc", "-faults", "0.05", "-audit", "-http", "127.0.0.1:0", "-trace", "-seed", "7")
	base := embed.await(t, &embed.stdout, `observability: (http://\S+)`)[1]

	checkMetrics(t, base, "mpc_rounds_total", "mpc_comm_words_total", "mpc_peak_local_words",
		"mpc_total_space_words", "mpc_checkpoints_total", "mpc_restores_total",
		"mpc_faults_injected_total", "resilient_retries_total", "par_fanouts_total",
		"quality_audit_runs_total", "quality_separation_events_total")

	doc := get(t, base+"/trace?format=json")
	var root obs.SpanSnapshot
	decode(t, "/trace?format=json", doc, &root)
	if root.Name == "" || len(root.Children) == 0 {
		t.Fatalf("/trace?format=json is not a named span tree:\n%s", doc)
	}
	// treembed handles SIGTERM only once the run is over and it lingers;
	// a SIGTERM before that kills it.
	embed.await(t, &embed.stdout, `serving on`)
	embed.stop(t)
}
