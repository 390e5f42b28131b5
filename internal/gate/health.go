// Replica health tracking. A background poller hits every backend's
// GET /v1/trees on an interval, recording liveness and the per-tree
// (generation, version) state the cache keys against; the forwarding
// path additionally marks a backend unhealthy the moment a request to
// it fails at the transport level, so failover does not wait for the
// next poll. Manifest versions from the polls drive the replica
// coherence view: when every healthy replica reports the same version
// for every shared tree the fleet is coherent; disagreement (expected
// transiently during rolling version pushes) is counted and gauged.
package gate

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"mpctree/internal/serve"
)

// backendState is the gate's view of one replica.
type backendState struct {
	url     string
	healthy atomic.Bool

	mu    sync.Mutex
	trees map[string]serve.TreeInfo // last successful /v1/trees poll
}

// setTrees replaces the polled tree table.
func (b *backendState) setTrees(infos []serve.TreeInfo) {
	m := make(map[string]serve.TreeInfo, len(infos))
	for _, ti := range infos {
		m[ti.Name] = ti
	}
	b.mu.Lock()
	b.trees = m
	b.mu.Unlock()
}

// tree returns the last polled state of one tree on this replica.
func (b *backendState) tree(name string) (serve.TreeInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ti, ok := b.trees[name]
	return ti, ok
}

// noteSnapshot folds a (version, generation) observed in a live answer
// from this replica into its tree table. Responses are as authoritative
// as a poll and arrive sooner: without this, a reload landing between
// polls leaves cache lookups keyed at the stale polled generation while
// fills key at the live one, so repeated identical queries miss (or,
// worse, keep hitting a pre-reload entry) until the next poll.
func (b *backendState) noteSnapshot(tree string, version, generation int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ti, ok := b.trees[tree]
	if ok && ti.Version == version && ti.Generation == generation {
		return
	}
	if !ok {
		ti = serve.TreeInfo{Name: tree}
	}
	ti.Version = version
	ti.Generation = generation
	if b.trees == nil {
		b.trees = make(map[string]serve.TreeInfo)
	}
	b.trees[tree] = ti
}

// noteTree replaces one tree's full polled state (used when a reload
// response hands back the complete post-reload TreeInfo).
func (b *backendState) noteTree(ti serve.TreeInfo) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.trees == nil {
		b.trees = make(map[string]serve.TreeInfo)
	}
	b.trees[ti.Name] = ti
}

// fingerprint identifies a tree's served snapshot for cache keying:
// manifest version (0 when the tree is not store-versioned) plus the
// backend-qualified generation. Generation must be part of the key even
// when the version pins the content — response bodies echo the
// generation, so bit-identity of a cached hit with the live answer only
// holds within one (backend, generation) snapshot. A reload or restart
// changes the generation and stale entries simply stop matching.
func fingerprint(backend string, version, generation int64) string {
	return fmt.Sprintf("v%d:g%d@%s", version, generation, backend)
}

// pollOnce refreshes one backend's health and tree table. Returns
// whether the backend answered.
func (g *Gateway) pollOnce(b *backendState) bool {
	resp, err := g.client.Get(b.url + "/v1/trees")
	if err != nil {
		g.markUnhealthy(b, err)
		return false
	}
	defer resp.Body.Close()
	var trees serve.TreesResponse
	if resp.StatusCode != http.StatusOK {
		g.markUnhealthy(b, fmt.Errorf("GET /v1/trees: HTTP %d", resp.StatusCode))
		return false
	}
	if err := json.NewDecoder(resp.Body).Decode(&trees); err != nil {
		g.markUnhealthy(b, err)
		return false
	}
	b.setTrees(trees.Trees)
	if !b.healthy.Swap(true) {
		if g.logger != nil {
			g.logger.Info("backend_healthy", "backend", b.url)
		}
	}
	g.setReplicaHealth(b.url, true)
	return true
}

// markUnhealthy flips a backend to unhealthy (idempotently) and updates
// the health gauges. Called from both the poller and the forward path.
func (g *Gateway) markUnhealthy(b *backendState, cause error) {
	if b.healthy.Swap(false) {
		if g.logger != nil {
			g.logger.Warn("backend_unhealthy", "backend", b.url, "cause", cause.Error())
		}
	}
	g.setReplicaHealth(b.url, false)
}

// poll refreshes every backend and recomputes the fleet rollups:
// healthy-replica count and version coherence.
func (g *Gateway) poll() {
	healthy := 0
	for _, b := range g.backends {
		if g.pollOnce(b) {
			healthy++
		}
	}
	if g.replicasHealthy != nil {
		g.replicasHealthy.Set(float64(healthy))
	}
	g.updateCoherence()
}

// skewedTrees is the coherence rule: for every tree that some healthy
// replica serves from a versioned store, the manifest versions the
// healthy replicas serve it at. It returns, sorted, the versions of each
// tree served at more than one; the fleet is coherent when it is empty.
func (g *Gateway) skewedTrees() map[string][]int64 {
	versions := make(map[string]map[int64]bool)
	for _, b := range g.backends {
		if !b.healthy.Load() {
			continue
		}
		b.mu.Lock()
		for name, ti := range b.trees {
			if ti.Version > 0 {
				if versions[name] == nil {
					versions[name] = make(map[int64]bool)
				}
				versions[name][ti.Version] = true
			}
		}
		b.mu.Unlock()
	}
	skew := make(map[string][]int64)
	for name, vs := range versions {
		if len(vs) > 1 {
			list := make([]int64, 0, len(vs))
			for v := range vs {
				list = append(list, v)
			}
			sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
			skew[name] = list
		}
	}
	return skew
}

// updateCoherence publishes the coherence rule after a poll: it sets
// gate_replica_coherent, and counts and logs each skewed tree.
func (g *Gateway) updateCoherence() {
	skew := g.skewedTrees()
	for name, list := range skew {
		if g.versionSkew != nil {
			g.versionSkew.Inc()
		}
		if g.logger != nil {
			g.logger.Warn("version_skew", "tree", name, "versions", fmt.Sprint(list))
		}
	}
	if g.replicaCoherent != nil {
		if len(skew) == 0 {
			g.replicaCoherent.Set(1)
		} else {
			g.replicaCoherent.Set(0)
		}
	}
}

// mergedTrees folds the per-replica tree tables into one listing for
// the gate's own /v1/trees: per name, the highest (version, generation)
// any healthy replica reports, plus how many replicas serve it.
func (g *Gateway) mergedTrees() []serve.TreeInfo {
	best := make(map[string]serve.TreeInfo)
	for _, b := range g.backends {
		if !b.healthy.Load() {
			continue
		}
		b.mu.Lock()
		for name, ti := range b.trees {
			cur, ok := best[name]
			if !ok || ti.Version > cur.Version ||
				(ti.Version == cur.Version && ti.Generation > cur.Generation) {
				best[name] = ti
			}
		}
		b.mu.Unlock()
	}
	out := make([]serve.TreeInfo, 0, len(best))
	for _, ti := range best {
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
