package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// newQualityFixture stands up a registry with auditing enabled over one
// tree ("t") whose points are on disk, plus the HTTP API.
func newQualityFixture(t *testing.T, reg *obs.Registry, logw *bytes.Buffer) (*Registry, *http.ServeMux, []vec.Point, string) {
	t.Helper()
	pts := workload.UniformLattice(5, 80, 4, 1<<10)
	tree, _, err := core.Embed(pts, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	treePath := filepath.Join(dir, "t.tree")
	saveTree(t, tree, treePath)
	ptsPath := filepath.Join(dir, "t.csv")
	if err := workload.WritePoints(ptsPath, pts); err != nil {
		t.Fatal(err)
	}

	logger := jsonLogger(t, logw)
	registry := NewRegistry(reg)
	registry.EnableQuality(quality.Config{MaxPairs: 256, Seed: 11}, logger)
	if err := registry.Load("t", treePath); err != nil {
		t.Fatal(err)
	}
	if err := registry.LoadPoints("t", ptsPath); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewServer(registry, Options{Obs: reg, Logger: logger}).RegisterMux(mux)
	return registry, mux, pts, treePath
}

func jsonLogger(t *testing.T, w *bytes.Buffer) *slog.Logger {
	t.Helper()
	lg, err := obs.NewLogger(w, slog.LevelDebug, "json")
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

func TestBackgroundAuditAndQualityEndpoint(t *testing.T) {
	reg := obs.New()
	var logBuf bytes.Buffer
	registry, mux, pts, _ := newQualityFixture(t, reg, &logBuf)
	registry.WaitAudits()

	res, err := registry.Quality("t")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Report == nil {
		t.Fatalf("no audit result after WaitAudits: %+v", res)
	}
	if res.Error != "" {
		t.Fatalf("audit failed: %s", res.Error)
	}
	if res.Generation != 1 {
		t.Fatalf("generation %d, want 1", res.Generation)
	}

	// The served report must agree with a direct offline audit on the
	// same seeded pairs — the round-tripped points are bit-identical.
	want, err := quality.Audit(mustGetTree(t, registry, "t"), pts, quality.Config{MaxPairs: 256, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MeanRatio != want.MeanRatio || res.Report.MinRatio != want.MinRatio ||
		res.Report.SampledPairs != want.SampledPairs {
		t.Fatalf("served report %+v disagrees with offline audit %+v", res.Report, want)
	}
	if res.Report.DominationViolations != 0 {
		t.Fatalf("sequential tree reported %d domination violations", res.Report.DominationViolations)
	}

	// GET /v1/quality returns the same result; unknown names 404; the
	// filtered form matches the listing.
	rr := doGet(t, mux, "/v1/quality")
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/quality: %d %s", rr.Code, rr.Body.String())
	}
	var qresp QualityResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if len(qresp.Results) != 1 || qresp.Results[0].Tree != "t" ||
		qresp.Results[0].Report.MeanRatio != want.MeanRatio {
		t.Fatalf("bad /v1/quality body: %s", rr.Body.String())
	}
	if rr := doGet(t, mux, "/v1/quality?tree=t"); rr.Code != http.StatusOK {
		t.Fatalf("/v1/quality?tree=t: %d", rr.Code)
	}
	if rr := doGet(t, mux, "/v1/quality?tree=nope"); rr.Code != http.StatusNotFound {
		t.Fatalf("/v1/quality?tree=nope: %d, want 404", rr.Code)
	}

	// quality_* series are live on the registry, labelled by tree.
	runs := 0.0
	for _, v := range reg.Snapshot() {
		if v.Name == "quality_audit_runs_total" && v.Labels["tree"] == "t" {
			runs += v.Value
		}
	}
	if runs != 1 {
		t.Fatalf("quality_audit_runs_total{tree=t} = %v, want 1", runs)
	}
}

// A registry built without metrics (NewRegistry(nil)) still audits, and
// /v1/quality reports the result.
func TestQualityWithoutMetrics(t *testing.T) {
	var logBuf bytes.Buffer
	registry, mux, _, _ := newQualityFixture(t, nil, &logBuf)
	registry.WaitAudits()
	res, err := registry.Quality("t")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Report == nil || res.Error != "" {
		t.Fatalf("no audit result after WaitAudits: %+v", res)
	}
	rr := doGet(t, mux, "/v1/quality")
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/quality: %d %s", rr.Code, rr.Body.String())
	}
	var qresp QualityResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if len(qresp.Results) != 1 || qresp.Results[0].Report == nil ||
		qresp.Results[0].Report.MeanRatio != res.Report.MeanRatio {
		t.Fatalf("bad /v1/quality body: %s", rr.Body.String())
	}
}

func TestHotReloadReaudits(t *testing.T) {
	reg := obs.New()
	var logBuf bytes.Buffer
	registry, _, _, treePath := newQualityFixture(t, reg, &logBuf)
	registry.WaitAudits()

	// Overwrite the tree file with a different-seed embedding of the
	// SAME points, then hot reload: the auditor must re-run against the
	// new tree under the same audit seed.
	pts := workload.UniformLattice(5, 80, 4, 1<<10)
	tree2, _, err := core.Embed(pts, core.Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	saveTree(t, tree2, treePath)
	first, _ := registry.Quality("t")
	if err := registry.Reload("t"); err != nil {
		t.Fatal(err)
	}
	registry.WaitAudits()
	second, err := registry.Quality("t")
	if err != nil {
		t.Fatal(err)
	}
	if second.Generation != first.Generation+1 {
		t.Fatalf("generation %d after reload, want %d", second.Generation, first.Generation+1)
	}
	want, err := quality.Audit(tree2, pts, quality.Config{MaxPairs: 256, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.MeanRatio != want.MeanRatio {
		t.Fatalf("post-reload report mean %v, want %v (new tree, same audit seed)",
			second.Report.MeanRatio, want.MeanRatio)
	}
	runs := 0.0
	for _, v := range reg.Snapshot() {
		if v.Name == "quality_audit_runs_total" {
			runs += v.Value
		}
	}
	if runs != 2 {
		t.Fatalf("quality_audit_runs_total = %v after reload, want 2", runs)
	}
	// The audit trail landed in the structured log.
	if !strings.Contains(logBuf.String(), "quality_audit") {
		t.Fatal("no quality_audit record in the structured log")
	}
}

func TestAccessLogsCarryRequestIDs(t *testing.T) {
	reg := obs.New()
	var logBuf bytes.Buffer
	registry, mux, _, _ := newQualityFixture(t, reg, &logBuf)
	// The background audit logs into logBuf too; reading the buffer
	// while it writes is a data race.
	registry.WaitAudits()

	rr := doGet(t, mux, "/v1/trees")
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/trees: %d", rr.Code)
	}
	gotID := rr.Header().Get("X-Request-ID")
	if gotID == "" {
		t.Fatal("no X-Request-ID response header")
	}

	// An incoming id is honored and echoed.
	req, _ := http.NewRequest(http.MethodGet, "/v1/quality", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-7")
	rr2 := record(mux, req)
	if rr2.Header().Get("X-Request-ID") != "caller-supplied-7" {
		t.Fatalf("incoming request id not echoed: %q", rr2.Header().Get("X-Request-ID"))
	}

	// Every /v1/* request produced one parseable JSON access record with
	// the fields the spec names; a 4xx must log its real status.
	if rr := doGet(t, mux, "/v1/quality?tree=nope"); rr.Code != http.StatusNotFound {
		t.Fatalf("expected 404, got %d", rr.Code)
	}
	var access []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON log line: %s", sc.Text())
		}
		if rec["msg"] == "request" {
			access = append(access, rec)
		}
	}
	if len(access) != 3 {
		t.Fatalf("got %d access records, want 3:\n%s", len(access), logBuf.String())
	}
	for _, rec := range access {
		for _, field := range []string{"request_id", "endpoint", "method", "path", "status", "duration_ms", "remote"} {
			if _, ok := rec[field]; !ok {
				t.Fatalf("access record missing %q: %v", field, rec)
			}
		}
	}
	if access[0]["request_id"] != gotID {
		t.Fatalf("logged request_id %v != response header %v", access[0]["request_id"], gotID)
	}
	if access[1]["request_id"] != "caller-supplied-7" {
		t.Fatalf("caller-supplied id not logged: %v", access[1]["request_id"])
	}
	if access[2]["status"] != float64(http.StatusNotFound) {
		t.Fatalf("404 logged as %v", access[2]["status"])
	}
}

func TestLoadPointsErrors(t *testing.T) {
	registry := NewRegistry(nil)
	if err := registry.LoadPoints("ghost", "nowhere.csv"); err == nil {
		t.Fatal("points for unregistered tree accepted")
	}
	tree, _, err := core.Embed(workload.UniformLattice(1, 16, 3, 64), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.tree")
	saveTree(t, tree, path)
	if err := registry.Load("t", path); err != nil {
		t.Fatal(err)
	}
	if err := registry.LoadPoints("t", filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing points file accepted")
	}
	// Without EnableQuality, points alone never spawn audits.
	ptsPath := filepath.Join(t.TempDir(), "t.csv")
	if err := workload.WritePoints(ptsPath, workload.UniformLattice(1, 16, 3, 64)); err != nil {
		t.Fatal(err)
	}
	if err := registry.LoadPoints("t", ptsPath); err != nil {
		t.Fatal(err)
	}
	registry.WaitAudits()
	if res, _ := registry.Quality("t"); res != nil {
		t.Fatal("audit ran without EnableQuality")
	}
}

// TestAuditPointMismatchSurfacesError: auditing against a points file
// whose count disagrees with the tree must record the error, not crash
// or publish metrics.
func TestAuditPointMismatchSurfacesError(t *testing.T) {
	reg := obs.New()
	registry := NewRegistry(reg)
	registry.EnableQuality(quality.Config{MaxPairs: 64}, nil)
	pts := workload.UniformLattice(2, 40, 4, 1<<10)
	tree, _, err := core.Embed(pts, core.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	treePath := filepath.Join(dir, "t.tree")
	saveTree(t, tree, treePath)
	ptsPath := filepath.Join(dir, "short.csv")
	if err := workload.WritePoints(ptsPath, pts[:10]); err != nil {
		t.Fatal(err)
	}
	if err := registry.Load("t", treePath); err != nil {
		t.Fatal(err)
	}
	if err := registry.LoadPoints("t", ptsPath); err != nil {
		t.Fatal(err)
	}
	registry.WaitAudits()
	res, err := registry.Quality("t")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Error == "" {
		t.Fatalf("point-count mismatch did not surface an error: %+v", res)
	}
	for _, v := range reg.Snapshot() {
		if v.Name == "quality_audit_runs_total" && v.Value != 0 {
			t.Fatal("failed audit incremented quality_audit_runs_total")
		}
	}
}

func mustGetTree(t *testing.T, r *Registry, name string) *hst.Tree {
	t.Helper()
	tree, err := r.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func record(mux *http.ServeMux, req *http.Request) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	return rr
}

func doGet(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return record(mux, req)
}
