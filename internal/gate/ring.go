// The consistent-hash ring that spreads queries across treeserve
// replicas. Each backend owns vnodes points on a 64-bit ring; a query
// key hashes to a position and walks clockwise collecting distinct
// backends, yielding a full preference order — the first entry is the
// owner, the rest are the deterministic failover sequence. Placement is
// a pure function of (backend URLs, key): every gate instance
// with the same configuration routes every key identically, so a cache
// in front of the ring sees maximal reuse and adding or removing one
// backend only moves the keys that hashed to it.
package gate

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringPoint is one virtual node: a position owned by a backend.
type ringPoint struct {
	pos     uint64
	backend int // index into Ring.backends
}

// Ring is an immutable consistent-hash ring over a fixed backend set.
type Ring struct {
	backends []string
	points   []ringPoint // sorted by pos
}

// hashKey is FNV-1a 64 finished with the splitmix64 finalizer — stable
// across processes and Go versions, unlike maphash. FNV-1a alone maps
// strings that differ only in their trailing bytes, such as one
// backend's "url#v" vnodes, to nearby positions, so a backend's vnodes
// cluster and its share of the keys drifts far from 1/n; the finalizer
// spreads them.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// vnodes is the number of virtual nodes each backend owns on the ring.
const vnodes = 64

// NewRing builds a ring over the backends. Backend order does not affect
// placement — positions derive from the URL text alone.
func NewRing(backends []string) *Ring {
	r := &Ring{backends: append([]string(nil), backends...)}
	for i, b := range r.backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{pos: hashKey(fmt.Sprintf("%s#%d", b, v)), backend: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.backends[r.points[i].backend] < r.backends[r.points[j].backend]
	})
	return r
}

// Prefer returns every backend ordered by preference for key: the ring
// owner first, then each remaining backend in clockwise order. The
// result is freshly allocated.
func (r *Ring) Prefer(key string) []string {
	if len(r.backends) == 0 {
		return nil
	}
	pos := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	out := make([]string, 0, len(r.backends))
	seen := make([]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(out) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}
