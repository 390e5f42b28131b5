package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mpctree/internal/obs"
	"mpctree/internal/treestore"
)

// tornStore publishes two versions of tree "t" and then flips one byte
// of version 2's tree file, so v2 — the CURRENT version — fails its
// sha256 check while keeping its manifest length. It returns the store
// after loading v1 into reg, i.e. the state of a replica that was
// serving v1 when the torn v2 was published.
func tornStore(t *testing.T, reg *Registry) *treestore.Store {
	t.Helper()
	st, err := treestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("t", buildTree(t, 1, 48)); err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		if err := reg.LoadWith("t", StoreLoader(st, "t")); err != nil {
			t.Fatal(err)
		}
	}
	m, err := st.Save("t", buildTree(t, 2, 48))
	if err != nil {
		t.Fatal(err)
	}
	path := st.TreePath("t", m.Version)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return st
}

// A replica told to reload onto a torn version keeps serving the version
// it has: the reload answers 400, dist answers keep echoing the previous
// version, and the failure is counted.
func TestTornVersionReloadKeepsPreviousVersion(t *testing.T) {
	metrics := obs.New()
	reg := NewRegistry(metrics)
	tornStore(t, reg)
	mux := http.NewServeMux()
	NewServer(reg, Options{}).RegisterMux(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	loadErrors := metrics.Counter("serve_tree_load_errors_total", "")
	before := loadErrors.Value()

	if code := postJSON(t, srv.URL+"/v1/trees/reload", ReloadRequest{Tree: "t"}, nil); code != http.StatusBadRequest {
		t.Fatalf("reload onto torn version: HTTP %d, want 400", code)
	}
	if got := loadErrors.Value(); got != before+1 {
		t.Fatalf("serve_tree_load_errors_total = %d, want %d", got, before+1)
	}
	var resp DistResponse
	if code := postJSON(t, srv.URL+"/v1/dist", DistRequest{Tree: "t", Pairs: [][2]int{{0, 1}}}, &resp); code != http.StatusOK {
		t.Fatalf("dist after failed reload: HTTP %d", code)
	}
	if resp.Version != 1 {
		t.Fatalf("dist after failed reload answered from version %d, want 1", resp.Version)
	}
}

// A replica started against a store whose CURRENT version is torn
// refuses to start: LoadWith returns the sha256 error (treeserve exits
// on it) and registers nothing.
func TestTornVersionRefusesStart(t *testing.T) {
	st := tornStore(t, nil)
	reg := NewRegistry(obs.New())
	err := reg.LoadWith("t", StoreLoader(st, "t"))
	if err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Fatalf("LoadWith on torn CURRENT = %v, want a sha256 mismatch", err)
	}
	if _, err := reg.Get("t"); err == nil {
		t.Fatal("torn tree registered despite the load error")
	}
}
