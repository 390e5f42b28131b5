// Package treestore is the durable, versioned tree store behind
// `treeserve -store` and `treegate`: a directory of named trees where
// every version of every tree is immutable once written and carries a
// manifest (name, version, sha256, byte length) that loads are verified
// against. It replaces ad-hoc `-tree name=path` flags with a layout a
// fleet of replicas can share:
//
//	<dir>/<name>/000001.tree   serialized tree (hst.Tree WriteTo format)
//	<dir>/<name>/000001.json   manifest for that version
//	<dir>/<name>/CURRENT       decimal version number currently served
//
// Publishes survive a process crash and a power loss: tree bytes and
// manifest are written to temp files, fsynced, and renamed into place,
// with the directory fsynced after each rename (and after creating a new
// tree's directory), before CURRENT (itself written the same way) is
// advanced — so a reader, or a restart after either failure, sees the old
// current version or the fully-written new one, never a torn state.
// Loads re-hash the tree bytes and fail loudly on any disagreement
// with the manifest (wrong length, wrong sha256, version skew), so a
// corrupt or half-copied store can never silently serve wrong answers.
package treestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mpctree/internal/hst"
)

// Manifest describes one immutable tree version. It is the unit of
// coherence checking: two replicas serve the same tree content iff they
// report the same (Name, Version, SHA256).
type Manifest struct {
	Name      string `json:"name"`
	Version   int64  `json:"version"`
	SHA256    string `json:"sha256"`
	Bytes     int64  `json:"bytes"`
	CreatedMs int64  `json:"created_unix_ms,omitempty"`
}

// Store is a handle on one store directory.
type Store struct {
	dir string
}

// Open returns a handle on dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("treestore: empty store dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("treestore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// checkName rejects names that would escape the store layout.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("treestore: empty tree name")
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("treestore: invalid tree name %q", name)
	}
	return nil
}

func (s *Store) treeDir(name string) string { return filepath.Join(s.dir, name) }

// TreePath returns the on-disk path of one tree version's bytes.
func (s *Store) TreePath(name string, version int64) string {
	return filepath.Join(s.treeDir(name), fmt.Sprintf("%06d.tree", version))
}

// ManifestPath returns the on-disk path of one version's manifest.
func (s *Store) ManifestPath(name string, version int64) string {
	return filepath.Join(s.treeDir(name), fmt.Sprintf("%06d.json", version))
}

// writeFileAtomic writes data next to path, syncs it, renames it into
// place, and syncs the directory, so the file is durable under its final
// name once this returns.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes a directory's entries — a rename into it, a new
// subdirectory — durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Save serializes t as the next version of name and advances CURRENT.
// The returned manifest describes exactly the bytes on disk.
func (s *Store) Save(name string, t *hst.Tree) (Manifest, error) {
	if err := checkName(name); err != nil {
		return Manifest{}, err
	}
	_, statErr := os.Stat(s.treeDir(name))
	if err := os.MkdirAll(s.treeDir(name), 0o755); err != nil {
		return Manifest{}, fmt.Errorf("treestore: %w", err)
	}
	if os.IsNotExist(statErr) {
		if err := syncDir(s.dir); err != nil {
			return Manifest{}, fmt.Errorf("treestore: %w", err)
		}
	}
	version := int64(1)
	if cur, err := s.Current(name); err == nil {
		version = cur + 1
	}
	// Versions are never overwritten: if an abandoned write left files
	// at this number, step past them.
	for {
		if _, err := os.Stat(s.TreePath(name, version)); os.IsNotExist(err) {
			break
		}
		version++
	}
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return Manifest{}, fmt.Errorf("treestore: serialize %q: %w", name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	m := Manifest{
		Name:      name,
		Version:   version,
		SHA256:    hex.EncodeToString(sum[:]),
		Bytes:     int64(buf.Len()),
		CreatedMs: time.Now().UnixMilli(),
	}
	mbytes, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	if err := writeFileAtomic(s.TreePath(name, version), buf.Bytes()); err != nil {
		return Manifest{}, fmt.Errorf("treestore: write tree: %w", err)
	}
	if err := writeFileAtomic(s.ManifestPath(name, version), append(mbytes, '\n')); err != nil {
		return Manifest{}, fmt.Errorf("treestore: write manifest: %w", err)
	}
	// CURRENT advances last: a crash or power loss before this line
	// leaves the old version serving and the new files inert.
	if err := writeFileAtomic(filepath.Join(s.treeDir(name), "CURRENT"),
		[]byte(strconv.FormatInt(version, 10)+"\n")); err != nil {
		return Manifest{}, fmt.Errorf("treestore: advance CURRENT: %w", err)
	}
	return m, nil
}

// Current reports the version CURRENT points at for name.
func (s *Store) Current(name string) (int64, error) {
	if err := checkName(name); err != nil {
		return 0, err
	}
	b, err := os.ReadFile(filepath.Join(s.treeDir(name), "CURRENT"))
	if err != nil {
		return 0, fmt.Errorf("treestore: %q has no CURRENT: %w", name, err)
	}
	v, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("treestore: %q has corrupt CURRENT %q", name, strings.TrimSpace(string(b)))
	}
	return v, nil
}

// ReadManifest reads and validates one version's manifest.
func (s *Store) ReadManifest(name string, version int64) (Manifest, error) {
	if err := checkName(name); err != nil {
		return Manifest{}, err
	}
	b, err := os.ReadFile(s.ManifestPath(name, version))
	if err != nil {
		return Manifest{}, fmt.Errorf("treestore: manifest for %q v%d: %w", name, version, err)
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("treestore: manifest for %q v%d is corrupt: %w", name, version, err)
	}
	if m.Name != name || m.Version != version {
		return Manifest{}, fmt.Errorf("treestore: manifest skew for %q v%d: manifest claims %q v%d",
			name, version, m.Name, m.Version)
	}
	if m.Bytes <= 0 || len(m.SHA256) != sha256.Size*2 {
		return Manifest{}, fmt.Errorf("treestore: manifest for %q v%d has implausible bytes=%d sha256=%q",
			name, version, m.Bytes, m.SHA256)
	}
	return m, nil
}

// Load reads the current version of name, verifying the tree bytes
// against the manifest before deserializing.
func (s *Store) Load(name string) (*hst.Tree, Manifest, error) {
	version, err := s.Current(name)
	if err != nil {
		return nil, Manifest{}, err
	}
	return s.LoadVersion(name, version)
}

// LoadVersion reads one specific version of name. The tree bytes must
// match the manifest's length and sha256 exactly; any disagreement —
// truncation, bit rot, a manifest copied from another version — is an
// error, and nothing partial is returned.
func (s *Store) LoadVersion(name string, version int64) (*hst.Tree, Manifest, error) {
	m, err := s.ReadManifest(name, version)
	if err != nil {
		return nil, Manifest{}, err
	}
	data, err := os.ReadFile(s.TreePath(name, version))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("treestore: tree bytes for %q v%d: %w", name, version, err)
	}
	if int64(len(data)) != m.Bytes {
		return nil, Manifest{}, fmt.Errorf("treestore: %q v%d is %d bytes, manifest says %d",
			name, version, len(data), m.Bytes)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != m.SHA256 {
		return nil, Manifest{}, fmt.Errorf("treestore: %q v%d sha256 %s does not match manifest %s",
			name, version, got, m.SHA256)
	}
	t, err := hst.ReadTree(bytes.NewReader(data))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("treestore: %q v%d: %w", name, version, err)
	}
	return t, m, nil
}

// Names lists every tree in the store that has a CURRENT version,
// sorted.
func (s *Store) Names() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("treestore: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.dir, e.Name(), "CURRENT")); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Versions lists every version of name that has a manifest, ascending.
func (s *Store) Versions(name string) ([]int64, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(s.treeDir(name))
	if err != nil {
		return nil, fmt.Errorf("treestore: %w", err)
	}
	var out []int64
	for _, e := range ents {
		base, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(base, 10, 64)
		if err != nil || v < 1 {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
