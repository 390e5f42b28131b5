package treestore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/hst"
	"mpctree/internal/workload"
)

func buildTree(t *testing.T, seed uint64, n int) *hst.Tree {
	t.Helper()
	pts := workload.UniformLattice(seed, n, 4, 1<<10)
	tree, _, err := core.Embed(pts, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func treeBytes(t *testing.T, tree *hst.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip pins the basic contract: Save then Load returns a
// byte-identical tree with a manifest that describes the bytes exactly.
func TestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tree := buildTree(t, 1, 64)
	m, err := st.Save("demo", tree)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "demo" || m.Version != 1 || m.Bytes <= 0 || len(m.SHA256) != 64 {
		t.Fatalf("bad manifest: %+v", m)
	}
	got, gm, err := st.Load("demo")
	if err != nil {
		t.Fatal(err)
	}
	if gm != m {
		t.Fatalf("manifest mismatch: saved %+v, loaded %+v", m, gm)
	}
	if !bytes.Equal(treeBytes(t, got), treeBytes(t, tree)) {
		t.Fatal("loaded tree is not byte-identical to the saved one")
	}
}

// TestVersioning: repeated saves advance CURRENT; old versions stay
// loadable and immutable.
func TestVersioning(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t1 := buildTree(t, 1, 64)
	t2 := buildTree(t, 2, 96)
	m1, err := st.Save("demo", t1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := st.Save("demo", t2)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != 1 || m2.Version != 2 {
		t.Fatalf("versions %d, %d, want 1, 2", m1.Version, m2.Version)
	}
	if cur, err := st.Current("demo"); err != nil || cur != 2 {
		t.Fatalf("Current = %d, %v, want 2", cur, err)
	}
	cur, _, err := st.Load("demo")
	if err != nil {
		t.Fatal(err)
	}
	if cur.NumPoints() != t2.NumPoints() {
		t.Fatalf("current version has %d points, want %d", cur.NumPoints(), t2.NumPoints())
	}
	old, om, err := st.LoadVersion("demo", 1)
	if err != nil {
		t.Fatal(err)
	}
	if om != m1 || old.NumPoints() != t1.NumPoints() {
		t.Fatal("version 1 not loadable after version 2 landed")
	}
}

// TestNames lists only trees with a CURRENT, sorted.
func TestNames(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tree := buildTree(t, 1, 64)
	for _, name := range []string{"b", "a"} {
		if _, err := st.Save(name, tree); err != nil {
			t.Fatal(err)
		}
	}
	// A directory without CURRENT (abandoned write) is invisible.
	if err := os.MkdirAll(filepath.Join(st.Dir(), "ghost"), 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := st.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v, want [a b]", names)
	}
}

// TestBadNames: names that would escape the layout are rejected.
func TestBadNames(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tree := buildTree(t, 1, 64)
	for _, name := range []string{"", "a/b", `a\b`, ".", ".."} {
		if _, err := st.Save(name, tree); err == nil {
			t.Errorf("Save(%q) accepted", name)
		}
		if _, _, err := st.Load(name); err == nil {
			t.Errorf("Load(%q) accepted", name)
		}
	}
}

// corruptionStore builds a one-tree store for the corruption tests.
func corruptionStore(t *testing.T) (*Store, Manifest) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Save("demo", buildTree(t, 1, 64))
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// TestCorruptTreeBytes: a flipped bit in the tree file fails the sha256
// check.
func TestCorruptTreeBytes(t *testing.T) {
	st, m := corruptionStore(t)
	path := st.TreePath("demo", m.Version)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("demo"); err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Fatalf("corrupt bytes loaded: err = %v", err)
	}
}

// TestTruncatedTree: missing bytes fail the length check before any
// deserialization is attempted.
func TestTruncatedTree(t *testing.T) {
	st, m := corruptionStore(t)
	path := st.TreePath("demo", m.Version)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("demo"); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("truncated tree loaded: err = %v", err)
	}
}

// TestTruncatedManifest: a half-written manifest is a load error, not a
// panic or a silent default.
func TestTruncatedManifest(t *testing.T) {
	st, m := corruptionStore(t)
	path := st.ManifestPath("demo", m.Version)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("demo"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated manifest loaded: err = %v", err)
	}
}

// TestVersionSkew: a manifest claiming a different name or version than
// its location (e.g. copied from another tree) is rejected, as is a
// CURRENT pointing at a version that does not exist.
func TestVersionSkew(t *testing.T) {
	st, m := corruptionStore(t)
	// Manifest claims version 7 while living at version 1.
	data, err := os.ReadFile(st.ManifestPath("demo", m.Version))
	if err != nil {
		t.Fatal(err)
	}
	skewed := strings.Replace(string(data), `"version": 1`, `"version": 7`, 1)
	if skewed == string(data) {
		t.Fatal("test setup: version field not found")
	}
	if err := os.WriteFile(st.ManifestPath("demo", m.Version), []byte(skewed), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("demo"); err == nil || !strings.Contains(err.Error(), "skew") {
		t.Fatalf("skewed manifest loaded: err = %v", err)
	}
	// CURRENT points past the last written version.
	if err := os.WriteFile(filepath.Join(st.Dir(), "demo", "CURRENT"), []byte("9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("demo"); err == nil {
		t.Fatal("dangling CURRENT loaded")
	}
	// Corrupt CURRENT content.
	if err := os.WriteFile(filepath.Join(st.Dir(), "demo", "CURRENT"), []byte("zero\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Current("demo"); err == nil || !strings.Contains(err.Error(), "CURRENT") {
		t.Fatalf("corrupt CURRENT accepted: err = %v", err)
	}
}
