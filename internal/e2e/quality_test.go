package e2e

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestQualitySmoke embeds with auditing on, serves the tree with its
// points, and checks the quality telemetry end to end: /v1/quality
// answers per tree (404 for an unknown one), the quality_* series gate
// the mean audited distortion ratio (~32 on this dataset; 100 leaves
// ~3x headroom and still catches a broken embedding) and require zero
// domination violations (sequential trees make domination
// deterministic), and a hot reload triggers a fresh background audit.
// Both binaries log JSON; the logs must carry the audit records and
// request ids.
func TestQualitySmoke(t *testing.T) {
	dir := scratch(t)
	embed := run(t, dir, "treembed", "-gen", "clusters", "-n", "512", "-d", "16", "-trees", "0",
		"-seed", "3", "-audit", "-audit-pairs", "2048", "-save", "q.tree", "-save-points", "q.csv",
		"-log-format", "json")
	mustMatch(t, "treembed's log", embed.stderr.String(), `"msg":"audit"`)

	srv := start(t, dir, "treeserve", "-tree", "demo=q.tree", "-points", "demo=q.csv",
		"-addr", "127.0.0.1:0", "-log-format", "json")
	base := srv.served(t, "serving")
	get(t, base+"/v1/trees")

	// The audit runs in the background after the load; wait for its report.
	poll(t, func() error {
		doc := get(t, base+"/v1/quality")
		if !strings.Contains(string(doc), `"tree":"demo"`) || !strings.Contains(string(doc), `"mean_ratio"`) {
			return fmt.Errorf("/v1/quality has no demo report yet:\n%s", doc)
		}
		return nil
	})
	get(t, base+"/v1/quality?tree=demo")
	if code := status(t, http.MethodGet, base+"/v1/quality?tree=ghost", ""); code != http.StatusNotFound {
		t.Fatalf("/v1/quality?tree=ghost answered %d, want 404", code)
	}

	checkMetrics(t, base, "quality_audit_runs_total", "quality_distortion_ratio",
		"quality_mean_distortion_ratio", "quality_separation_events_total")
	checkQuality(t, base, 100, 1)

	post(t, base+"/v1/trees/reload", `{"tree":"demo"}`)
	checkMetrics(t, base)
	checkQuality(t, base, 100, 2)
	srv.stop(t)
	mustMatch(t, "treeserve's log", srv.stderr.String(), `"msg":"quality_audit"`, `"request_id"`)
}

// checkQuality polls base's quality_* series until at least minRuns
// audits (summed over trees) have landed, then requires zero domination
// violations and a mean quality_distortion_ratio of at most maxMean.
func checkQuality(t *testing.T, base string, maxMean float64, minRuns int64) {
	t.Helper()
	poll(t, func() error {
		values, doc, err := scrape(base)
		if err != nil {
			return err
		}
		var runs, count int64
		var sum float64
		var violations []string
		for _, v := range values {
			switch v.Name {
			case "quality_audit_runs_total":
				runs += int64(v.Value)
			case "quality_domination_violations_total":
				if v.Value > 0 {
					violations = append(violations, fmt.Sprintf("%s = %g", series(v), v.Value))
				}
			case "quality_distortion_ratio":
				sum += v.Value
				count += v.Count
			}
		}
		if runs < minRuns {
			return fmt.Errorf("quality_audit_runs_total = %d, want >= %d\n%s", runs, minRuns, doc)
		}
		if len(violations) > 0 {
			t.Fatalf("tree metric failed to dominate Euclidean: %s\n%s", strings.Join(violations, ", "), doc)
		}
		if count == 0 {
			return fmt.Errorf("quality_distortion_ratio has no observations yet\n%s", doc)
		}
		if mean := sum / float64(count); mean > maxMean {
			t.Fatalf("mean distortion ratio %.3f exceeds %.3f\n%s", mean, maxMean, doc)
		}
		return nil
	})
}
