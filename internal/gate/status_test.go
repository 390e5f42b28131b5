package gate

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpctree/internal/core"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/serve"
	"mpctree/internal/treestore"
	"mpctree/internal/workload"
)

// getStatus reads the gate's /v1/status document.
func getStatus(t *testing.T, gateURL string) StatusResponse {
	t.Helper()
	resp, err := http.Get(gateURL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/status: HTTP %d", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getBody reads one GET answer's status and bytes.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestGateVersionSkew: two replicas serve one store tree and one of them
// reloads to version 2. The poll's gauge and counter and /v1/status
// read the same coherence rule: incoherent while the versions differ,
// coherent again once the other replica reloads too.
func TestGateVersionSkew(t *testing.T) {
	trees := buildTrees(t, 2, 21, 64)
	st, err := treestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("t-0", trees[0]); err != nil {
		t.Fatal(err)
	}
	urls, _ := storeFleet(t, st, []string{"t-0"}, 2)
	reg := obs.New()
	g, gw := newGate(t, urls, reg, func(o *Options) { o.HealthInterval = time.Hour })
	gauge := func() float64 {
		for _, v := range reg.Snapshot() {
			if v.Name == "gate_replica_coherent" {
				return v.Value
			}
		}
		t.Fatal("gate_replica_coherent not exported")
		return 0
	}
	if !getStatus(t, gw.URL).Coherent || gauge() != 1 {
		t.Fatalf("fresh fleet: coherent %v, gauge %v; want true, 1", getStatus(t, gw.URL).Coherent, gauge())
	}

	if _, err := st.Save("t-0", trees[1]); err != nil {
		t.Fatal(err)
	}
	reload := func(url string) {
		t.Helper()
		if status, _ := postJSON(t, url+"/v1/trees/reload", serve.ReloadRequest{Tree: "t-0"}, nil); status != http.StatusOK {
			t.Fatalf("reload %s: HTTP %d", url, status)
		}
		g.poll()
	}
	reload(urls[0])
	if st := getStatus(t, gw.URL); st.Coherent {
		t.Fatalf("replicas at versions 2 and 1 read coherent: %+v", st.Replicas)
	}
	if gauge() != 0 {
		t.Fatalf("gate_replica_coherent = %v under skew, want 0", gauge())
	}
	if got := reg.Counter("gate_version_skew_total", "").Value(); got < 1 {
		t.Fatalf("gate_version_skew_total = %d under skew, want >= 1", got)
	}

	reload(urls[1])
	if !getStatus(t, gw.URL).Coherent || gauge() != 1 {
		t.Fatalf("both replicas at version 2: coherent %v, gauge %v; want true, 1", getStatus(t, gw.URL).Coherent, gauge())
	}
}

// TestGateQualityAlarmFromAuditError: a replica whose audit errors
// (its points file does not match the tree) is the one /v1/status
// reads its alarms from, with the audit error as the reason, and the
// gate relays that replica's /v1/quality byte for byte.
func TestGateQualityAlarmFromAuditError(t *testing.T) {
	pts := workload.UniformLattice(22, 40, 4, 1<<10)
	tree, _, err := core.Embed(pts, core.Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := treestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("t-0", tree); err != nil {
		t.Fatal(err)
	}
	ptsPath := filepath.Join(dir, "short.csv")
	if err := workload.WritePoints(ptsPath, pts[:10]); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(obs.New())
	reg.EnableQuality(quality.Config{MaxPairs: 64}, nil)
	if err := reg.LoadWith("t-0", serve.StoreLoader(st, "t-0")); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadPoints("t-0", ptsPath); err != nil {
		t.Fatal(err)
	}
	reg.WaitAudits()
	mux := http.NewServeMux()
	serve.NewServer(reg, serve.Options{}).RegisterMux(mux)
	replica := httptest.NewServer(mux)
	t.Cleanup(replica.Close)
	_, gw := newGate(t, []string{replica.URL}, nil, nil)

	status := getStatus(t, gw.URL)
	if len(status.QualityAlarms) != 1 || status.QualityAlarms[0].Tree != "t-0" ||
		!strings.HasPrefix(status.QualityAlarms[0].Reason, "audit error: ") {
		t.Fatalf("quality alarms = %+v, want one audit error on t-0", status.QualityAlarms)
	}
	if status.QualitySource != replica.URL {
		t.Fatalf("quality_source = %q, want %q", status.QualitySource, replica.URL)
	}

	for _, query := range []string{"", "?tree=t-0"} {
		wantCode, want := getBody(t, replica.URL+"/v1/quality"+query)
		gotCode, got := getBody(t, gw.URL+"/v1/quality"+query)
		if gotCode != wantCode || string(got) != string(want) {
			t.Fatalf("gate /v1/quality%s = %d %q, replica answered %d %q", query, gotCode, got, wantCode, want)
		}
		if !strings.Contains(string(got), `"error":`) {
			t.Fatalf("/v1/quality%s carries no audit error: %s", query, got)
		}
	}
}
