package treestore

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lowerHexDigest is the digest form Save writes and LoadVersion compares.
var lowerHexDigest = regexp.MustCompile(`^[0-9a-f]{64}$`)

// fuzzStore returns a store with one tree directory, "t", whose files the
// fuzz bodies overwrite.
func fuzzStore(f *testing.F) *Store {
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := os.MkdirAll(st.treeDir("t"), 0o755); err != nil {
		f.Fatal(err)
	}
	return st
}

// FuzzReadManifest feeds arbitrary manifest bytes to ReadManifest. It
// must never panic, and an accepted manifest must name the requested
// tree and version, claim a positive length, and carry a digest of 64
// lowercase hex digits — anything else would only fail later, at load
// time, as a misleading sha256 mismatch.
func FuzzReadManifest(f *testing.F) {
	const digest = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	for _, s := range []string{
		`{"name":"t","version":1,"sha256":"` + digest + `","bytes":10}`,
		`{"name":"t","version":1,"sha256":"` + digest + `","bytes":10,"created_unix_ms":5}`,
		`{"name":"t","version":1,"sha256":"` + strings.ToUpper(digest) + `","bytes":10}`,
		`{"name":"t","version":1,"sha256":"` + strings.Repeat("zz", 32) + `","bytes":10}`,
		`{"name":"t","version":1,"sha256":"` + digest[:62] + `","bytes":10}`,
		`{"name":"t","version":2,"sha256":"` + digest + `","bytes":10}`,
		`{"name":"u","version":1,"sha256":"` + digest + `","bytes":10}`,
		`{"name":"t","version":1,"sha256":"` + digest + `","bytes":0}`,
		`{"name":"t","version":1,"sha256":"` + digest + `","bytes":10,"x":1}`,
		`{"name":"t","version":1`, `null`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	st := fuzzStore(f)
	path := st.ManifestPath("t", 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := st.ReadManifest("t", 1)
		if err != nil {
			return
		}
		if m.Name != "t" || m.Version != 1 {
			t.Fatalf("accepted manifest for %q v%d, asked for \"t\" v1: %q", m.Name, m.Version, data)
		}
		if m.Bytes <= 0 {
			t.Fatalf("accepted manifest with bytes=%d: %q", m.Bytes, data)
		}
		if !lowerHexDigest.MatchString(m.SHA256) {
			t.Fatalf("accepted manifest with digest %q: %q", m.SHA256, data)
		}
	})
}

// FuzzCurrent feeds arbitrary CURRENT bytes to Current. It must never
// panic, and an accepted CURRENT names a version ≥ 1.
func FuzzCurrent(f *testing.F) {
	for _, s := range []string{"1\n", "000042", " 7 ", "0", "-3", "x", "", "9223372036854775808", "+5"} {
		f.Add([]byte(s))
	}
	st := fuzzStore(f)
	path := filepath.Join(st.treeDir("t"), "CURRENT")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, err := st.Current("t"); err == nil && v < 1 {
			t.Fatalf("Current accepted version %d from %q", v, data)
		}
	})
}
