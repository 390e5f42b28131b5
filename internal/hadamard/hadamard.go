// Package hadamard implements the Walsh–Hadamard transform, sequentially
// and distributed over the MPC simulator.
//
// The FJLT's H matrix (Section 5 of the paper) is the normalised
// Walsh–Hadamard matrix H_{i,j} = d^{-1/2}·(−1)^{⟨i−1,j−1⟩}; applying it is
// the d-dimensional transform computable in O(d log d) sequentially.
//
// The distributed version follows the Kronecker factorisation
// H_{R·C} = H_R ⊗ H_C: lay a length-d vector out as R rows of C contiguous
// entries, transform every row locally (H_C), transpose, transform every
// column locally (H_R), and transpose back — the same communication
// pattern as the MPC FFT of Hajiaghayi–Saleh–Seddighin–Sun the paper
// invokes. Like that FFT, the transposes move blocks: each record is a
// tile of g consecutive columns of one row, so a transpose costs
// n·d·(g+4)/g words rather than five words per element. Two local stages
// suffice whenever d ≤ C², which at local memory (nd)^ε means 1/ε ≤ 2
// stages; the round count is O(1) regardless of n.
package hadamard

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mpctree/internal/mpc"
)

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// NextPow2 returns the smallest power of two ≥ v (v ≥ 1).
func NextPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(v-1))
}

// FWHT applies the unnormalised Walsh–Hadamard transform to x in place.
// len(x) must be a power of two. Applying it twice yields len(x)·x.
func FWHT(x []float64) {
	if !IsPow2(len(x)) {
		panic(fmt.Sprintf("hadamard: length %d is not a power of two", len(x)))
	}
	fwhtRef(x)
}

// fwhtRef is the textbook in-place butterfly: ascending strides over the
// whole vector. Each pass is two interleaved sequential streams, which
// hardware prefetchers service at full bandwidth.
func fwhtRef(x []float64) {
	n := len(x)
	for h := 1; h < n; h *= 2 {
		for i := 0; i < n; i += 2 * h {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

// Normalized applies the orthonormal transform H = FWHT/√d in place.
// It is an involution: Normalized(Normalized(x)) == x.
func Normalized(x []float64) {
	FWHT(x)
	scale := 1 / math.Sqrt(float64(len(x)))
	for i := range x {
		x[i] *= scale
	}
}

// Dense returns the normalised d×d Walsh–Hadamard matrix, for tests and
// tiny inputs only (O(d²) space).
func Dense(d int) [][]float64 {
	if !IsPow2(d) {
		panic(fmt.Sprintf("hadamard: dimension %d is not a power of two", d))
	}
	scale := 1 / math.Sqrt(float64(d))
	h := make([][]float64, d)
	for i := range h {
		h[i] = make([]float64, d)
		for j := range h[i] {
			if bits.OnesCount(uint(i&j))%2 == 0 {
				h[i][j] = scale
			} else {
				h[i][j] = -scale
			}
		}
	}
	return h
}

// Record tags used by the distributed transform. Row blocks are the
// at-rest layout; TagElem records are the tiles (g columns of one row)
// that exist only inside transpose rounds.
const (
	TagRowBlock uint8 = 10
	TagElem     uint8 = 11
)

// RowBlockKey is the routing key of block b of vector v.
func RowBlockKey(v, b int) string { return fmt.Sprintf("h|%d|%d", v, b) }

// RowBlock constructs the at-rest record for block b of vector v: the
// contiguous entries data[b·C : (b+1)·C].
func RowBlock(v, b int, block []float64) mpc.Record {
	return mpc.Record{Key: RowBlockKey(v, b), Tag: TagRowBlock, Ints: []int64{int64(v), int64(b)}, Data: block}
}

// DistributeVectors loads n vectors of length d (power of two) onto the
// cluster as row blocks of size blockC, ready for DistFWHT. Vectors are
// padded with zeros to length d if shorter.
func DistributeVectors(c *mpc.Cluster, vecs [][]float64, d, blockC int) error {
	if !IsPow2(d) || !IsPow2(blockC) || blockC > d {
		return fmt.Errorf("hadamard: bad layout d=%d blockC=%d", d, blockC)
	}
	var recs []mpc.Record
	for v, x := range vecs {
		if len(x) > d {
			return fmt.Errorf("hadamard: vector %d longer than d=%d", v, d)
		}
		for b := 0; b*blockC < d; b++ {
			block := make([]float64, blockC)
			for t := 0; t < blockC; t++ {
				if i := b*blockC + t; i < len(x) {
					block[t] = x[i]
				}
			}
			recs = append(recs, RowBlock(v, b, block))
		}
	}
	return c.Distribute(recs)
}

// CollectVectors reads back n vectors of length d from row-block layout.
func CollectVectors(c *mpc.Cluster, n, d, blockC int) ([][]float64, error) {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	seen := 0
	recs, err := c.Collect()
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.Tag != TagRowBlock {
			continue
		}
		v, b := int(r.Ints[0]), int(r.Ints[1])
		if v < 0 || v >= n || b < 0 || (b+1)*blockC > d {
			return nil, fmt.Errorf("hadamard: stray block (%d,%d)", v, b)
		}
		copy(out[v][b*blockC:], r.Data)
		seen++
	}
	if seen != n*(d/blockC) {
		return nil, fmt.Errorf("hadamard: collected %d blocks, want %d", seen, n*(d/blockC))
	}
	return out, nil
}

// DistFWHT applies the normalised Walsh–Hadamard transform to every vector
// resident on the cluster in row-block layout (n vectors, length d, block
// size C): local H_C per row block, transpose, local H_R per column,
// transpose back. Requires R = d/C ≤ CapWords (a column must fit on a
// machine); with C chosen near √d this holds whenever d ≤ Cap².
//
// The transposes move tiles, not elements: a tile is g consecutive columns
// of one row, one record of g + 4 words (header, [v, ·, ·], g values). The
// first transpose sends row (v, b)'s C/g tiles to the owners of column
// groups (v, tg); the owner transforms the group's g columns and sends one
// g-wide tile per row back to the row's owner. The tile width is derived
// from the layout and the cap (see tileWidth): g = C when a column group
// fits in an eighth of the cap, halved until it does, and at g = 1 the
// tiles are single-element records. Each transpose moves n·d·(g+4)/g words.
//
// Each machine's local transforms run serially inside its round closure,
// one block or column at a time: the machines are the only fan-out, as in
// the MPC model. The butterflies and the order of every float operation
// are those of Normalized, so the output equals it bit for bit. The last
// parameter is ignored; it remains only for source compatibility with
// existing callers.
//
// Rounds: 2 (the two transposes); all transforms ride along as local work.
func DistFWHT(c *mpc.Cluster, d, blockC, _ int) error {
	if !IsPow2(d) || !IsPow2(blockC) || blockC > d {
		return fmt.Errorf("hadamard: bad layout d=%d blockC=%d", d, blockC)
	}
	rows := d / blockC // R: number of row blocks = column length
	if rows > c.CapWords() {
		return fmt.Errorf("hadamard: column length %d exceeds machine cap %d; increase blockC", rows, c.CapWords())
	}
	M := c.Machines()
	g := tileWidth(rows, blockC, c.CapWords())
	scale := 1 / math.Sqrt(float64(d))

	// Stage 1 + transpose: transform each row block locally, then send its
	// tiles to the column-group owners. Tiles are routed by a numeric hash
	// of (v, tg) and carry no string key. A tile's payload is a subslice
	// of its row: the blocks are dropped from this machine's store after
	// emission and a failed round is only ever recovered by checkpoint
	// restore (never by re-running the closure on the same store), so no
	// copy is needed.
	err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		keep := local[:0:0]
		blocks := 0
		for _, r := range local {
			if r.Tag == TagRowBlock {
				blocks++
			}
		}
		ints := make([]int64, 3*blocks*(blockC/g))
		// Emission is serial in store order: delivery order is part of the
		// cluster's determinism contract.
		for _, r := range local {
			if r.Tag != TagRowBlock {
				keep = append(keep, r)
				continue
			}
			FWHT(r.Data)
			v, b := r.Ints[0], r.Ints[1]
			for tg := 0; tg*g < blockC; tg++ {
				in := ints[:3:3]
				ints = ints[3:]
				in[0], in[1], in[2] = v, int64(tg), b
				emit(routeElem(saltCol, uint64(v), uint64(tg), M), mpc.Record{
					Tag:  TagElem,
					Ints: in,
					Data: r.Data[tg*g : (tg+1)*g : (tg+1)*g],
				})
			}
		}
		return keep
	})
	if err != nil {
		return err
	}

	// Assemble each column group (R tiles of g columns) column-major,
	// transform and scale its columns, and send one g-wide tile per row
	// back to the row's owner. Groups go out in sorted (v, tg) order so the
	// next round's store layout does not depend on map iteration order.
	err = c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		keep, ids, slot := tileGroups(local)
		span := rows * g
		cols := make([]float64, len(ids)*span)
		for _, r := range local {
			if r.Tag != TagElem {
				continue
			}
			col := cols[slot[[2]int64{r.Ints[0], r.Ints[1]}]*span:]
			b := int(r.Ints[2])
			for t, val := range r.Data {
				col[t*rows+b] = val
			}
		}
		data := make([]float64, len(ids)*span)
		ints := make([]int64, 3*len(ids)*rows)
		for s, id := range ids {
			col := cols[s*span : (s+1)*span]
			for t := 0; t < g; t++ {
				FWHT(col[t*rows : (t+1)*rows])
			}
			for j := 0; j < rows; j++ {
				out := data[:g:g]
				data = data[g:]
				for t := range out {
					out[t] = col[t*rows+j] * scale
				}
				in := ints[:3:3]
				ints = ints[3:]
				in[0], in[1], in[2] = id[0], int64(j), id[1]
				emit(routeElem(saltRow, uint64(id[0]), uint64(j), M), mpc.Record{
					Tag:  TagElem,
					Ints: in,
					Data: out,
				})
			}
		}
		return keep
	})
	if err != nil {
		return err
	}

	// Reassemble row blocks locally from their C/g tiles, in sorted (v, b)
	// order. The blocks are carved from one slice per machine and become
	// the at-rest payloads.
	return c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep, ids, slot := tileGroups(local)
		blocks := make([]float64, len(ids)*blockC)
		for _, r := range local {
			if r.Tag != TagElem {
				continue
			}
			s := slot[[2]int64{r.Ints[0], r.Ints[1]}]
			copy(blocks[s*blockC+int(r.Ints[2])*g:], r.Data)
		}
		for s, id := range ids {
			keep = append(keep, RowBlock(int(id[0]), int(id[1]), blocks[s*blockC:(s+1)*blockC:(s+1)*blockC]))
		}
		return keep
	})
}

// tileGroups splits a store into the records that are not tiles (keep,
// in store order) and the distinct (Ints[0], Ints[1]) pairs of its tiles
// — (v, tg) column groups or (v, b) rows — in ascending order, with slot
// mapping each pair to its index.
func tileGroups(local []mpc.Record) (keep []mpc.Record, ids [][2]int64, slot map[[2]int64]int) {
	keep = local[:0:0]
	slot = make(map[[2]int64]int)
	for _, r := range local {
		if r.Tag != TagElem {
			keep = append(keep, r)
			continue
		}
		id := [2]int64{r.Ints[0], r.Ints[1]}
		if _, ok := slot[id]; !ok {
			slot[id] = 0
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i][0] != ids[j][0] {
			return ids[i][0] < ids[j][0]
		}
		return ids[i][1] < ids[j][1]
	})
	for i, id := range ids {
		slot[id] = i
	}
	return keep, ids, slot
}

// tileWidth picks the transposes' tile width g for R rows of C columns
// under a cap of capWords: the widest power of two g ≤ C at which one
// column group — R tiles of g + 4 words — fits in an eighth of the cap,
// and 1 when none does. At g = 1 the records and their routing are
// exactly one record per element, so tiles only ever widen where a
// column group is small against the cap and hashing whole groups to
// machines costs little balance.
func tileWidth(rows, blockC, capWords int) int {
	g := blockC
	for g > 1 && 8*rows*(g+4) > capWords {
		g /= 2
	}
	return g
}

// Routing salts: distinct hash domains for the column-scatter and the
// row-scatter so the two transposes spread independently.
const (
	saltCol uint64 = 0xC01
	saltRow uint64 = 0xB10C
)

// routeElem hashes (salt, v, t) to a machine with the same byte-serial
// FNV-1a mix rng.NewHashed uses (a weaker XOR-multiply mix leaves lattice
// structure across a coordinate sweep), without materialising a string
// key — this is DistFWHT's innermost loop.
func routeElem(salt, v, t uint64, machines int) int {
	h := uint64(14695981039346656037)
	const prime = 1099511628211
	for _, x := range [3]uint64{salt, v, t} {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime
		}
	}
	return int(h % uint64(machines))
}
