// Package mpcembed implements Algorithm 2 of the paper: the fully scalable
// MPC hybrid-partitioning tree embedding (the core of Theorem 1).
//
// The round structure follows the paper's four steps (dimension reduction,
// Section 5, happens upstream in the pipeline package):
//
//  1. the point-set diameter is computed from per-machine bounding boxes:
//     one round sends each machine's box to machine 0, where they are
//     merged, while every point stays where it was loaded (the paper
//     assumes Δ is known; we compute it for completeness);
//  2. one machine draws all U·r·logΔ grids — Lemma 7 sizes U, and Lemma 8's
//     constraint that the grids fit in one machine's memory is enforced
//     before a single grid is drawn: if they cannot fit (as with r = 1 ball
//     partitioning, where U = 2^Ω(d log d)), the algorithm fails loudly,
//     which is precisely the paper's argument for why hybridisation is
//     necessary — and broadcasts them as r·logΔ grid sets, one record per
//     (level, bucket) holding its U shifts;
//  3. every machine computes path(p) for each of its points with purely
//     local work: per level and bucket, the first grid whose ball covers
//     the bucket projection. Cluster identities along the path are chained
//     128-bit hashes of the per-level, per-bucket ball ids — the path(p)
//     tuples of Algorithm 2 in a fixed-width encoding. The same round
//     sends every edge, leaf and path record to the machine that owns its
//     key (mpc.Owner): it is the shuffle of Algorithm 2's union;
//  4. each owner drops the duplicate edges it received, locally and with
//     no further round, and the driver assembles the weighted tree
//     (Algorithm 2's "T is the union of the returned T_i").
//
// Unlike the sequential embedding, paths run the full logΔ levels (no
// early singleton cut-off), exactly as Algorithm 2 writes path(p); the
// level schedule guarantees distinct points separate before the bottom.
package mpcembed

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"mpctree/internal/grid"
	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/obs"
	"mpctree/internal/par"
	"mpctree/internal/partition"
	"mpctree/internal/rng"
	"mpctree/internal/vec"
)

// Record tags.
const (
	TagPoint uint8 = 30 // Key "pt|i", Ints [i], Data coords
	TagGrid  uint8 = 31 // Key "g|lev|bucket", Ints [lev,bucket], Data the U shifts, shift u at [u·k, (u+1)·k)
	TagEdge  uint8 = 32 // Key childHash, Ints [level, parentHi, parentLo], Data [weight]
	TagLeaf  uint8 = 33 // Key "leaf|i", Ints [i, level, parentHi, parentLo], Data [weight]
	TagFail  uint8 = 34 // Ints [point, level, bucket]
	TagBox   uint8 = 35 // Data [lo..., hi...]
	TagPath  uint8 = 36 // Key "path|i", Ints [i, h1Hi, h1Lo, ..., hLHi, hLLo], Data [] — resident per-point ancestor path (EmitPaths)
)

// Options configures the MPC embedding.
type Options struct {
	// R is the bucket count; 0 selects r = Θ(log log n) as in Section 4.
	R int
	// MaxGrids caps U per (level, bucket); 0 applies the Lemma 7 bound at
	// failure probability FailProb.
	MaxGrids int
	// FailProb is δ for the Lemma 7 bound; 0 means 0.001.
	FailProb float64
	// MinDist lower-bounds pairwise distances for the level schedule.
	// 0 means 1 (integer-lattice inputs, as Theorem 1 assumes). The
	// Theorem-1 pipeline passes (1−ξ) after the FJLT.
	MinDist float64
	// EmitPaths keeps one TagPath record per point resident after
	// embedding, on the machine that owns its key: the point's full
	// ancestor-hash path. They are then the only records left resident:
	// the edge and leaf records are dropped once the tree is assembled.
	// Downstream O(1)-round applications (mpcapps: EMD, MST, densest ball)
	// aggregate over these instead of walking the tree level by level.
	EmitPaths bool
	// Seed drives all randomness.
	Seed uint64
	// Span, if non-nil, receives child spans attributing cost to the
	// Algorithm-2 phases: grid_construction (lines 1–3: diameter, grid
	// draw, broadcast), root_paths (lines 4–6: per-point paths), and
	// tree_build (edge dedup, driver assembly). Each child carries exact
	// rounds/comm_words deltas from the cluster meters; spans are
	// observational only and never change the output.
	Span *obs.Span
}

// Info reports the run's plan; the cluster's round, space and
// communication meters are c.Metrics().
type Info struct {
	N, Dim, R int
	Levels    int
	U         int // grids per (level, bucket)
	GridWords int // words of broadcast grid state (Lemma 8's quantity)
	Diameter  float64
}

// ErrCoverage is returned when some point was uncovered at some level and
// bucket after all U grids, the failure Theorem 1 reports.
var ErrCoverage = errors.New("mpcembed: ball partitioning failed to cover all points")

// ErrGridsDontFit is returned when the Lemma 7 grid count cannot fit in a
// machine's memory — the regime where plain ball partitioning (r = 1) is
// infeasible and hybridisation is required.
var ErrGridsDontFit = errors.New("mpcembed: required grids exceed local memory; increase r (hybridise) or memory")

// rootHash is the chain hash of the root cluster.
func rootHash() [16]byte { var h [16]byte; return h }

// chainNext extends a cluster chain hash with this level's joined ball id:
// FNV-128a over prev then levelID, written out high half first, each half
// big-endian, as hash/fnv's Sum writes it.
func chainNext(prev [16]byte, levelID []byte) [16]byte {
	hi, lo := fnv128a(0x6c62272e07bb0142, 0x62b821756295c58d, prev[:])
	hi, lo = fnv128a(hi, lo, levelID)
	var out [16]byte
	binary.BigEndian.PutUint64(out[:8], hi)
	binary.BigEndian.PutUint64(out[8:], lo)
	return out
}

// fnv128a feeds data into the FNV-128a state (hi, lo). The prime is
// 2^88 + 0x13b, so the 128-bit product is one 64×64 multiply by 0x13b
// plus the low half shifted into the high half by 88−64 = 24 bits.
func fnv128a(hi, lo uint64, data []byte) (uint64, uint64) {
	for _, c := range data {
		lo ^= uint64(c)
		h, l := bits.Mul64(0x13b, lo)
		hi = h + lo<<24 + 0x13b*hi
		lo = l
	}
	return hi, lo
}

// plan is the Lemma 7/8 grid plan for one bucket count r.
type plan struct {
	r, dPad, k, levels, u int
	gridRecWords          int // words charged per grid: a record of its own
	gridWords             int // words of all grids (Lemma 8's quantity)
	diamFactor            float64
}

// maxLevels caps the depth of the level schedule.
const maxLevels = 48

// planGrids plans r buckets over diameter diam. Of opt it reads MinDist,
// FailProb and MaxGrids, with their documented defaults.
func planGrids(n, d, r int, diam float64, opt Options) plan {
	minDist := opt.MinDist
	if minDist == 0 {
		minDist = 1
	}
	failProb := opt.FailProb
	if failProb == 0 {
		failProb = 0.001
	}
	dPad := d
	if d%r != 0 {
		dPad = d + (r - d%r)
	}
	k := dPad / r
	diamFactor := 2 * math.Sqrt(float64(r))
	levels := 1
	for w := diam / 2; diamFactor*w >= minDist && levels < maxLevels; w /= 2 {
		levels++
	}
	u := opt.MaxGrids
	if u == 0 {
		u = partition.HybridGridBound(k, n, r, levels, failProb)
	}
	grw := (mpc.Record{Key: "g|00|00|0000", Ints: []int64{0, 0, 0}, Data: make([]float64, k)}).Words()
	gwf := float64(u) * float64(r) * float64(levels) * float64(grw)
	gw := 1 << 50 // sentinel: certainly over any cap
	if gwf < float64(1<<50) {
		gw = int(gwf)
	}
	return plan{r: r, dPad: dPad, k: k, levels: levels, u: u, gridRecWords: grw, gridWords: gw, diamFactor: diamFactor}
}

// GridPlan reports, without running anything, the Lemma-7 grid count U
// per (level, bucket), the level count, and the total words of grid state
// a machine must hold (Lemma 8's quantity) to embed n points of dimension
// d with r buckets over the given diameter — the plan Embed runs with the
// same R, MinDist and FailProb. minDist 0 means 1; failProb 0 means 0.001.
// Used by the ablation experiments and by capacity planning.
func GridPlan(n, d, r int, diam, minDist, failProb float64) (u, levels, gridWords int) {
	pl := planGrids(n, d, r, diam, Options{MinDist: minDist, FailProb: failProb})
	return pl.u, pl.levels, pl.gridWords
}

// Embed runs Algorithm 2 over the cluster and returns the tree.
func Embed(c *mpc.Cluster, pts []vec.Point, opt Options) (*hst.Tree, *Info, error) {
	n := len(pts)
	if n == 0 {
		return nil, nil, errors.New("mpcembed: empty point set")
	}
	d := len(pts[0])
	if d == 0 {
		return nil, nil, errors.New("mpcembed: zero-dimensional points")
	}
	for i, p := range pts {
		if len(p) != d {
			return nil, nil, fmt.Errorf("mpcembed: point %d has dimension %d, want %d", i, len(p), d)
		}
	}
	if opt.R < 0 || opt.R > d {
		return nil, nil, fmt.Errorf("mpcembed: r=%d out of [1, d=%d]", opt.R, d)
	}

	// Phase spans. One phase is open at a time; endPhase stamps the exact
	// rounds/comm_words delta the phase consumed, and the deferred call
	// closes whatever phase an early return leaves open. All of this is
	// nil-safe (opt.Span == nil costs a handful of struct copies) and
	// write-only, so instrumented and plain runs produce identical trees.
	var curSpan *obs.Span
	var curM mpc.Metrics
	beginPhase := func(name string) *obs.Span {
		curSpan = opt.Span.Child(name)
		curM = c.Metrics()
		return curSpan
	}
	endPhase := func() {
		if curSpan == nil {
			return
		}
		curSpan.End()
		m1 := c.Metrics()
		curSpan.Add("rounds", int64(m1.Rounds-curM.Rounds))
		curSpan.Add("comm_words", int64(m1.CommWords-curM.CommWords))
		curSpan = nil
	}
	defer endPhase()
	spGrid := beginPhase("grid_construction")

	// Input placement: one record per point (original dimension; padding
	// to a bucket multiple is a local, distance-preserving operation each
	// machine performs itself once r is fixed). Keys are interned as
	// substrings of one shared string — byte-identical to the historical
	// fmt.Sprintf("pt|%d", i) — and the point-id Ints are slices of one
	// slice, so the load costs O(1) heap objects instead of 2n.
	recs := make([]mpc.Record, n)
	ptKeyOff := make([]int, n+1)
	ptKeyBuf := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		ptKeyBuf = append(ptKeyBuf, 'p', 't', '|')
		ptKeyBuf = strconv.AppendInt(ptKeyBuf, int64(i), 10)
		ptKeyOff[i+1] = len(ptKeyBuf)
	}
	ptKeys := string(ptKeyBuf)
	ptIDs := make([]int64, n)
	for i, p := range pts {
		ptIDs[i] = int64(i)
		recs[i] = mpc.Record{
			Key:  ptKeys[ptKeyOff[i]:ptKeyOff[i+1]],
			Tag:  TagPoint,
			Ints: ptIDs[i : i+1 : i+1],
			Data: p,
		}
	}
	if err := c.Distribute(recs); err != nil {
		return nil, nil, err
	}

	// Step 1: diameter from per-machine bounding boxes. One round sends
	// each machine's box — lo in [0, d), hi in [d, 2d) — to machine 0, and
	// every machine keeps its store. widen grows a box to cover [lo, hi].
	widen := func(box, lo, hi []float64) {
		for j := 0; j < d; j++ {
			if lo[j] < box[j] {
				box[j] = lo[j]
			}
			if hi[j] > box[d+j] {
				box[d+j] = hi[j]
			}
		}
	}
	if err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		var box []float64
		for _, rec := range local {
			if rec.Tag != TagPoint {
				continue
			}
			if box == nil {
				box = append(append(make([]float64, 0, 2*d), rec.Data...), rec.Data...)
				continue
			}
			widen(box, rec.Data, rec.Data)
		}
		if box != nil {
			emit(0, mpc.Record{Key: "box", Tag: TagBox, Data: box})
		}
		return local
	}); err != nil {
		return nil, nil, err
	}
	// Machine 0 folds the boxes into the first it received and drops the
	// rest; the min/max folds are exact, so the order does not change the
	// diameter.
	var box []float64
	if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		if m != 0 {
			return local
		}
		keep := local[:0]
		for _, rec := range local {
			if rec.Tag != TagBox {
				keep = append(keep, rec)
				continue
			}
			if box == nil {
				box = rec.Data
				keep = append(keep, rec)
				continue
			}
			widen(box, rec.Data[:d], rec.Data[d:])
		}
		clear(local[len(keep):])
		return keep
	}); err != nil {
		return nil, nil, err
	}
	var diam float64
	if box != nil {
		var s float64
		for j := 0; j < d; j++ {
			dd := box[d+j] - box[j]
			s += dd * dd
		}
		diam = math.Sqrt(s)
	}
	if diam == 0 {
		if n > 1 {
			return nil, nil, errors.New("mpcembed: points are not distinct (diameter 0)")
		}
		b := hst.NewBuilder(1)
		b.AddLeaf(b.Root(), 0, 1, 0)
		return b.Finish(), &Info{N: 1, Dim: d, R: 1}, nil
	}

	// Choose r: the caller's explicit value, or the smallest r ≥
	// Θ(log log n) whose Lemma-7 grid count fits one machine's memory —
	// the Lemma 8 constraint. Larger r costs √r distortion but shrinks the
	// per-bucket dimension k = d/r and with it the 2^Θ(k log k) grid count;
	// this is the paper's grid↔ball trade-off made operational.
	var pl plan
	if opt.R != 0 {
		pl = planGrids(n, d, opt.R, diam, opt)
	} else {
		for r := partition.AutoR(n, d); ; r++ {
			pl = planGrids(n, d, r, diam, opt)
			if pl.gridWords <= c.CapWords() || r >= d {
				break
			}
		}
	}
	r := pl.r
	k := pl.k
	dPad := pl.dPad
	levels := pl.levels
	u := pl.u
	diamFactor := pl.diamFactor

	info := &Info{N: n, Dim: dPad, R: r, Levels: levels, U: u, Diameter: diam, GridWords: pl.gridWords}

	// Step 2: Lemma 8 check, then grid generation on machine 0 and
	// broadcast. The plan charges every grid a record of its own (k + 6
	// words: header, key, three ints, shift), though the grids travel as
	// one record per (level, bucket) set of U shifts, so the resident
	// state is smaller than the plan. Charging the packed size would pick
	// a smaller r at the same cap, and so different trees.
	if info.GridWords > c.CapWords() {
		return nil, info, fmt.Errorf("%w: %d grids × %d words = %d > cap %d (r=%d, k=%d, U=%d)",
			ErrGridsDontFit, u*r*levels, pl.gridRecWords, info.GridWords, c.CapWords(), r, k, u)
	}
	// Cell length ℓ = 4w per level (ball radius w = diam/2^lev), computed
	// once on the driver for the grid draw and every machine's grid table.
	cell := make([]float64, levels+1)
	for lev := 1; lev <= levels; lev++ {
		cell[lev] = 4 * diam / math.Pow(2, float64(lev))
	}
	// All U·r·L shifts live in one slice, grid gi = ((lev-1)·r + j)·u + uu
	// at [gi·k, (gi+1)·k), so set (lev, j) is one contiguous run of u·k
	// words. The shift sampling — on the coordinator, outside any round —
	// fans out over the sets at GOMAXPROCS. Each grid reseeds its own
	// generator from (seed, lev, j, uu), so the sampled variates are
	// independent of the shard layout; a set hashes its (seed, lev, j)
	// prefix once and each grid only its uu. The byte-serial hash seeding
	// Reseed shares with rng.NewHashed matters: a weaker XOR-multiply mix
	// produced measurably correlated shift sequences whose coverage had
	// dead zones.
	shifts := make([]float64, u*r*levels*k)
	par.For(r*levels, func(lo, hi int) {
		var rg rng.RNG
		for s := lo; s < hi; s++ {
			lev, j := s/r+1, s%r
			pre := rng.HashPrefix(opt.Seed, 0x9d1d, uint64(lev), uint64(j))
			for uu := 0; uu < u; uu++ {
				gi := s*u + uu
				rg.ReseedFrom(pre, uint64(uu))
				grid.NewInto(&rg, shifts[gi*k:(gi+1)*k:(gi+1)*k], cell[lev])
			}
		}
	})
	setWords := u * k
	sets := make([]mpc.Record, r*levels)
	for s := range sets {
		lev, j := s/r+1, s%r
		sets[s] = mpc.Record{
			Key:  fmt.Sprintf("g|%d|%d", lev, j),
			Tag:  TagGrid,
			Ints: []int64{int64(lev), int64(j)},
			Data: shifts[s*setWords : (s+1)*setWords : (s+1)*setWords],
		}
	}
	if err := c.Broadcast(0, sets); err != nil {
		return nil, info, err
	}
	spGrid.Add("levels", int64(levels))
	spGrid.Add("grids", int64(u*r*levels))
	spGrid.Add("grid_words", int64(info.GridWords))
	endPhase()
	spPaths := beginPhase("root_paths")
	spPaths.Add("points", int64(n))

	// Step 3: local path computation, and the union's shuffle: every edge
	// (deduplicated map-side), leaf, failure and path record goes to the
	// machine that owns its key.
	M := c.Machines()
	err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		// Index the grid sets at (lev-1)·r + j; the cell length is per level
		// (cell above), so the hot loop builds each grid.Grid in place from
		// a shift sliced out of its set and a level. A set that is missing
		// or not exactly U shifts long fails the round.
		sets := make([][]float64, levels*r)
		var points []mpc.Record
		for _, rec := range local {
			switch rec.Tag {
			case TagGrid:
				lev, j := int(rec.Ints[0]), int(rec.Ints[1])
				if lev < 1 || lev > levels || j < 0 || j >= r {
					continue
				}
				if len(rec.Data) != setWords {
					panic(fmt.Sprintf("mpcembed: grid set (level %d, bucket %d) holds %d words, want %d", lev, j, len(rec.Data), setWords))
				}
				sets[(lev-1)*r+j] = rec.Data
			case TagPoint:
				points = append(points, rec)
			}
		}
		for s, set := range sets {
			if set == nil {
				panic(fmt.Sprintf("mpcembed: grid set (level %d, bucket %d) missing", s/r+1, s%r))
			}
		}
		// Per-point path computation — the hot loop — then emission, each
		// in one serial sweep in store order: each point's path is a pure
		// function of the grid table and its own coordinates, edges are
		// deduplicated map-side, and records go out in the order they are
		// computed, so every owner receives its path records in the same
		// order at any GOMAXPROCS. The first sweep writes every point's
		// chain ids, 16 bytes a level, into one string; the second emits
		// each new edge keyed by its 16 bytes of that string, so the keys
		// of a machine's edges are one heap object. Emitted payloads are
		// sliced out of per-machine chunks; the receiving stores own them.
		// A point adds at most one edge per level, which sizes the dedup
		// set and the id string.
		var intChunk []int64
		var floatChunk []float64
		seenEdge := make(map[[16]byte]struct{}, len(points)*levels)
		var ids strings.Builder
		ids.Grow(len(points) * levels * 16)
		isNew := make([]bool, 0, len(points)*levels)   // per chain id: its edge is emitted
		type outcome struct{ failLev, failBucket int } // failLev > 0 marks an uncovered point
		outcomes := make([]outcome, len(points))
		var scratch [16]int64
		var levelID []byte // reused across points; hashed before reuse
		var padded vec.Point
		// Buckets from firstPad on hold only footnote-3 padding (j·k ≥ d),
		// so every point projects to the zero vector there and gets the
		// same grid and ball: the machine searches once per (level, bucket),
		// when the first point gets there, and reuses the bytes, or the
		// failure, for every other point.
		type zeroCover struct {
			lo, hi        int // the bucket's part of the level's ball id, zeroIDs[lo:hi]
			done, covered bool
		}
		firstPad := (d + k - 1) / k
		var zeroCovers []zeroCover
		var zeroIDs []byte
		var zero vec.Point
		if firstPad < r {
			zeroCovers = make([]zeroCover, levels*r)
			zero = make(vec.Point, k)
		}
		for i, prec := range points {
			p := prec.Data
			if len(p) < dPad {
				if padded == nil {
					padded = make(vec.Point, dPad)
				}
				clear(padded)
				copy(padded, p)
				p = padded
			}
			cur := rootHash()
			w := diam / 2
			out := &outcomes[i]
			for lev := 1; lev <= levels && out.failLev == 0; lev++ {
				// Joined ball id across buckets.
				levelID = levelID[:0]
				for j := 0; j < r && out.failLev == 0; j++ {
					s := (lev-1)*r + j
					var covered bool
					if j < firstPad {
						levelID, covered = appendCover(levelID, p[j*k:(j+1)*k], sets[s], j, cell[lev], w, scratch[:0])
					} else {
						z := &zeroCovers[s]
						if !z.done {
							z.lo = len(zeroIDs)
							zeroIDs, z.covered = appendCover(zeroIDs, zero, sets[s], j, cell[lev], w, scratch[:0])
							z.hi, z.done = len(zeroIDs), true
						}
						levelID = append(levelID, zeroIDs[z.lo:z.hi]...)
						covered = z.covered
					}
					if !covered {
						out.failLev, out.failBucket = lev, j
					}
				}
				if out.failLev > 0 {
					break
				}
				next := chainNext(cur, levelID)
				_, seen := seenEdge[next]
				if !seen {
					seenEdge[next] = struct{}{}
				}
				ids.Write(next[:])
				isNew = append(isNew, !seen)
				cur = next
				w /= 2
			}
		}
		keys := ids.String()
		off := 0 // chain ids emitted so far
		for i, prec := range points {
			pid := int(prec.Ints[0])
			out := outcomes[i]
			var cur [16]byte // the root's id
			w := diam / 2
			var pathInts []int64
			if opt.EmitPaths {
				pathInts = append(pathInts, int64(pid))
			}
			reached := levels // the levels whose ball covered the point
			if out.failLev > 0 {
				reached = out.failLev - 1
			}
			for lev := 1; lev <= reached; lev++ {
				key := keys[16*off : 16*off+16]
				if isNew[off] {
					ints := carve(&intChunk, 3, 4*len(points))
					ints[0] = int64(lev)
					ints[1] = int64(binary.LittleEndian.Uint64(cur[:8]))
					ints[2] = int64(binary.LittleEndian.Uint64(cur[8:]))
					data := carve(&floatChunk, 1, len(points))
					data[0] = diamFactor * w
					emit(mpc.Owner(key, M), mpc.Record{
						Key:  key,
						Tag:  TagEdge,
						Ints: ints,
						Data: data,
					})
				}
				off++
				copy(cur[:], key)
				if opt.EmitPaths {
					pathInts = append(pathInts, int64(binary.LittleEndian.Uint64(cur[:8])), int64(binary.LittleEndian.Uint64(cur[8:])))
				}
				w /= 2
			}
			if out.failLev > 0 {
				key := fmt.Sprintf("fail|%d|%d|%d", pid, out.failLev, out.failBucket)
				emit(mpc.Owner(key, M), mpc.Record{Key: key, Tag: TagFail, Ints: []int64{int64(pid), int64(out.failLev), int64(out.failBucket)}})
				continue
			}
			if opt.EmitPaths {
				key := "path|" + strconv.Itoa(pid)
				emit(mpc.Owner(key, M), mpc.Record{Key: key, Tag: TagPath, Ints: pathInts})
			}
			// Terminal leaf edge at level levels+1.
			leafKey := "leaf|" + strconv.Itoa(pid)
			ints := carve(&intChunk, 4, 4*len(points))
			ints[0], ints[1] = int64(pid), int64(levels+1)
			ints[2] = int64(binary.LittleEndian.Uint64(cur[:8]))
			ints[3] = int64(binary.LittleEndian.Uint64(cur[8:]))
			data := carve(&floatChunk, 1, len(points))
			data[0] = diamFactor * w
			emit(mpc.Owner(leafKey, M), mpc.Record{
				Key:  leafKey,
				Tag:  TagLeaf,
				Ints: ints,
				Data: data,
			})
		}
		return nil // grids, points and the box are consumed
	})
	if err != nil {
		return nil, info, err
	}
	endPhase()
	beginPhase("tree_build")

	// Step 4: the union. Every edge already sits on its owner, so each
	// owner drops, in place, the duplicates other machines also sent,
	// keeping the first it received.
	if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		seen := make(map[[16]byte]struct{}, len(local))
		keep := local[:0]
		for _, rec := range local {
			if rec.Tag == TagEdge {
				var child [16]byte
				copy(child[:], rec.Key)
				if _, dup := seen[child]; dup {
					continue
				}
				seen[child] = struct{}{}
			}
			keep = append(keep, rec)
		}
		clear(local[len(keep):])
		return keep
	}); err != nil {
		return nil, info, err
	}

	// Driver-side assembly.
	t, err := assemble(c, n, levels)
	if err != nil {
		return nil, info, err
	}
	// The tree now lives on the driver; only the path records have a
	// further use on the cluster.
	if opt.EmitPaths {
		if err := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
			keep := local[:0]
			for _, rec := range local {
				if rec.Tag != TagEdge && rec.Tag != TagLeaf {
					keep = append(keep, rec)
				}
			}
			clear(local[len(keep):])
			return keep
		}); err != nil {
			return nil, info, err
		}
	}
	return t, info, nil
}

// appendCover appends bucket j's part of a level's ball id for the
// bucket projection proj to dst: j, then the index of the first grid of
// the set (its shifts, len(proj) words each) whose balls of radius w
// cover proj, then the covering ball's cell index. When no grid covers
// proj it returns dst unchanged and false.
func appendCover(dst []byte, proj vec.Point, set []float64, j int, cell, w float64, scratch []int64) ([]byte, bool) {
	uu, idx, ok := grid.FirstCover(proj, set, cell, w, scratch)
	if !ok {
		return dst, false
	}
	dst = append(dst, byte(j))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(uu))
	for _, v := range idx {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst, true
}

// carve returns the next n elements of *chunk. When *chunk is too short
// it is replaced by a fresh chunk of size elements rather than grown, so
// nothing is copied; the slices already carved keep the old chunk alive.
func carve[T any](chunk *[]T, n, size int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, max(size, n))
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// chainID is a cluster chain hash as two integers, the big-endian
// readings of its halves, high half first: their numeric order is the
// bytewise order of the 16 bytes.
type chainID struct{ hi, lo uint64 }

func (a chainID) cmp(b chainID) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// keyID reads the chain hash an edge record carries as its 16-byte key.
func keyID(key string) chainID {
	var b [16]byte
	copy(b[:], key)
	return chainID{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// intsID reads the chain hash a record carries in two ints, each the
// little-endian reading of one half.
func intsID(a, b int64) chainID {
	return chainID{bits.ReverseBytes64(uint64(a)), bits.ReverseBytes64(uint64(b))}
}

// treeEdge is one edge of the union: the child's chain hash, its
// parent's, and the edge weight.
type treeEdge struct {
	id, parent chainID
	weight     float64
}

func (a treeEdge) cmp(b treeEdge) int { return a.id.cmp(b.id) }

// levelIndex is one level's edges in child-id order, with a directory
// over the ids' top bits: the ids whose high half is q after a right
// shift by shift sit at edges[dir[q]:dir[q+1]].
type levelIndex struct {
	edges []treeEdge
	dir   []int32
	shift uint
}

// indexLevel sorts one level's edges in place by child id and returns
// their index; tmp holds at least len(edges) edges and dir 2^b+1 ints,
// for b = bits.Len(len(edges)). One counting pass over the ids' top b
// bits leaves each prefix about one id, since the ids are hashes; the
// few ids that share a prefix are then sorted among themselves.
func indexLevel(edges, tmp []treeEdge, dir []int32) levelIndex {
	b := bits.Len(uint(len(edges)))
	x := levelIndex{edges: edges, dir: dir[:1<<b+1], shift: uint(64 - b)}
	clear(x.dir)
	for _, e := range edges {
		x.dir[e.id.hi>>x.shift+1]++
	}
	for q := 1; q < len(x.dir); q++ {
		x.dir[q] += x.dir[q-1]
	}
	// Placing a prefix's ids advances its start to its end, which is the
	// next prefix's start: shift the starts back afterwards.
	for _, e := range edges {
		q := e.id.hi >> x.shift
		tmp[x.dir[q]] = e
		x.dir[q]++
	}
	copy(x.dir[1:len(x.dir)-1], x.dir[:len(x.dir)-2])
	x.dir[0] = 0
	copy(edges, tmp[:len(edges)])
	for q := 0; q+1 < len(x.dir); q++ {
		if run := edges[x.dir[q]:x.dir[q+1]]; len(run) > 1 {
			slices.SortFunc(run, treeEdge.cmp)
		}
	}
	return x
}

// find returns the position of the edge whose child is id.
func (x levelIndex) find(id chainID) (int, bool) {
	if len(x.edges) == 0 {
		return 0, false
	}
	q := id.hi >> x.shift
	lo := int(x.dir[q])
	j, ok := slices.BinarySearchFunc(x.edges[lo:x.dir[q+1]], id, func(e treeEdge, id chainID) int { return e.id.cmp(id) })
	return lo + j, ok
}

// assemble reads the deduplicated edge and leaf records of a run with
// the given number of levels off the cluster, machine by machine, and
// builds the hst.Tree over its n points. Nodes are numbered in (level,
// child id) order, ids compared bytewise, and the leaves follow in point
// order. An edge's parent is found among the previous level's ids, a
// leaf's among those of the level above its own.
func assemble(c *mpc.Cluster, n, levels int) (*hst.Tree, error) {
	type leafRec struct {
		parent chainID
		level  int
		weight float64
		ok     bool
	}
	// The resident state after a fault is not trustworthy output.
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", mpc.ErrFailed, err)
	}
	// One pass fails fast on a coverage failure and counts each level's
	// edges, so the second places every record where it belongs: an edge
	// among its level's, at edges[start[lev]:start[lev+1]], and a leaf at
	// its point index.
	stores := make([][]mpc.Record, c.Machines())
	start := make([]int, levels+2)
	badLevel, bad := int64(0), false
	for m := range stores {
		recs, err := c.StoreErr(m)
		if err != nil {
			return nil, err
		}
		stores[m] = recs
		for _, rec := range recs {
			switch rec.Tag {
			case TagFail:
				return nil, fmt.Errorf("%w (point %d, level %d, bucket %d)", ErrCoverage, rec.Ints[0], rec.Ints[1], rec.Ints[2])
			case TagEdge:
				if lev := rec.Ints[0]; lev >= 1 && lev <= int64(levels) {
					start[lev+1]++
				} else if !bad {
					badLevel, bad = lev, true
				}
			}
		}
	}
	if bad {
		return nil, fmt.Errorf("mpcembed: edge at level %d, outside [1, %d]", badLevel, levels)
	}
	widest := 0 // edges at the level that has the most
	for lev := 1; lev <= levels; lev++ {
		widest = max(widest, start[lev+1])
		start[lev+1] += start[lev]
	}
	edges := make([]treeEdge, start[levels+1])
	next := slices.Clone(start)
	leaves := make([]leafRec, n)
	nLeaves := 0
	for _, recs := range stores {
		for _, rec := range recs {
			switch rec.Tag {
			case TagEdge:
				lev := rec.Ints[0]
				edges[next[lev]] = treeEdge{id: keyID(rec.Key), parent: intsID(rec.Ints[1], rec.Ints[2]), weight: rec.Data[0]}
				next[lev]++
			case TagLeaf:
				nLeaves++
				if p := rec.Ints[0]; p >= 0 && p < int64(n) && !leaves[p].ok {
					leaves[p] = leafRec{parent: intsID(rec.Ints[2], rec.Ints[3]), level: int(rec.Ints[1]), weight: rec.Data[0], ok: true}
				}
			}
		}
	}
	if nLeaves != n {
		return nil, fmt.Errorf("mpcembed: %d leaf records for %d points", nLeaves, n)
	}
	// n records filled n slots only if no point was out of range or twice.
	for p, lf := range leaves {
		if !lf.ok {
			return nil, fmt.Errorf("mpcembed: point %d has no leaf record", p)
		}
	}

	// Level by level, sort the edges and add their nodes: node
	// 1+start[lev]+j is the j-th edge of level lev in id order.
	index := make([]levelIndex, levels+1)
	parentOf := func(lev int, id chainID) (int, bool) {
		if lev == 0 {
			return 0, id == chainID{}
		}
		j, ok := index[lev].find(id)
		return 1 + start[lev] + j, ok
	}
	dirWords := 0
	for lev := 1; lev <= levels; lev++ {
		dirWords += 1<<bits.Len(uint(start[lev+1]-start[lev])) + 1
	}
	dirs := make([]int32, dirWords)
	tmp := make([]treeEdge, widest)
	b := hst.NewBuilder(n)
	b.Grow(len(edges) + n)
	for lev := 1; lev <= levels; lev++ {
		x := indexLevel(edges[start[lev]:start[lev+1]], tmp, dirs)
		dirs = dirs[len(x.dir):]
		index[lev] = x
		for _, e := range x.edges {
			parent, ok := parentOf(lev-1, e.parent)
			if !ok {
				return nil, fmt.Errorf("mpcembed: edge at level %d references unknown parent", lev)
			}
			b.AddNode(parent, e.weight, lev)
		}
	}
	for p, lf := range leaves {
		parent, ok := 0, false
		if lf.level >= 1 && lf.level <= levels+1 {
			parent, ok = parentOf(lf.level-1, lf.parent)
		}
		if !ok {
			return nil, fmt.Errorf("mpcembed: leaf %d references unknown parent", p)
		}
		b.AddLeaf(parent, lf.weight, lf.level, p)
	}
	t := b.Finish()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("mpcembed: assembled invalid tree: %v", err)
	}
	return t, nil
}
