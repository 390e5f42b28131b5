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
// invokes. Two local stages suffice whenever d ≤ C², which at local
// memory (nd)^ε means 1/ε ≤ 2 stages; the round count is O(1) regardless
// of n.
package hadamard

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mpctree/internal/arena"
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
// at-rest layout; element records exist only inside transpose rounds.
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
// Each machine's local transforms run serially inside its round closure,
// one block or column at a time as it is emitted: the machines are the
// only fan-out, as in the MPC model. The last parameter is ignored; it
// remains only for source compatibility with existing callers.
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
	scale := 1 / math.Sqrt(float64(d))

	// Stage 1 + transpose: transform each row block locally, then scatter
	// elements to column owners. In-flight element records are routed by a
	// numeric hash of their coordinates and carry no string key: the
	// string-key scheme this replaces allocated two strings per element
	// (the routing key and the record key) on the hottest loop of the
	// transform.
	err := c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		keep := local[:0:0]
		// Transform each block in place, then emit its elements, serially
		// in store order: delivery order is part of the cluster's
		// determinism contract. The blocks are dropped from this machine's
		// store after emission and a failed round is only ever recovered
		// by checkpoint restore (never by re-running the closure on the
		// same store), so no defensive copy is needed. Payloads are carved
		// from an escape-mode arena (see internal/arena): the receiving
		// stores hold the carves, the slabs die with them, and the two
		// heap objects per element collapse to two per ~2k elements.
		a := arena.New()
		for _, r := range local {
			if r.Tag != TagRowBlock {
				keep = append(keep, r)
				continue
			}
			FWHT(r.Data)
			v, b := r.Ints[0], r.Ints[1]
			for t, val := range r.Data {
				ints := a.Ints(3)
				ints[0], ints[1], ints[2] = v, int64(t), b
				data := a.Floats(1)
				data[0] = val
				emit(routeElem(saltCol, uint64(v), uint64(t), M), mpc.Record{
					Tag:  TagElem,
					Ints: ints,
					Data: data,
				})
			}
		}
		return keep
	})
	if err != nil {
		return err
	}

	// Assemble columns, transform, scatter back to row blocks. Column
	// buffers and outgoing payloads both come from one per-machine arena:
	// the columns are scratch that dies with the closure, the payloads
	// escape into the receiving stores — both usages are safe because the
	// arena is never Reset.
	err = c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
		keep := local[:0:0]
		a := arena.New()
		type colID struct{ v, t int }
		cols := make(map[colID][]float64)
		for _, r := range local {
			if r.Tag != TagElem {
				keep = append(keep, r)
				continue
			}
			id := colID{v: int(r.Ints[0]), t: int(r.Ints[1])}
			col := cols[id]
			if col == nil {
				col = a.Floats(rows)
				cols[id] = col
			}
			col[r.Ints[2]] = r.Data[0]
		}
		// Fixed emission order (sorted column ids) so the next round's
		// store layout does not depend on map iteration order.
		ids := make([]colID, 0, len(cols))
		for id := range cols {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].v != ids[j].v {
				return ids[i].v < ids[j].v
			}
			return ids[i].t < ids[j].t
		})
		for _, id := range ids {
			col := cols[id]
			FWHT(col)
			for j, val := range col {
				ints := a.Ints(3)
				ints[0], ints[1], ints[2] = int64(id.v), int64(j), int64(id.t)
				data := a.Floats(1)
				data[0] = val * scale
				emit(routeElem(saltRow, uint64(id.v), uint64(j), M), mpc.Record{
					Tag:  TagElem,
					Ints: ints,
					Data: data,
				})
			}
		}
		return keep
	})
	if err != nil {
		return err
	}

	// Reassemble row blocks locally. Block buffers are carved escape-mode:
	// they become the at-rest store payloads.
	return c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
		keep := local[:0:0]
		a := arena.New()
		type rowID struct{ v, b int }
		rowsAcc := make(map[rowID][]float64)
		for _, r := range local {
			if r.Tag != TagElem {
				keep = append(keep, r)
				continue
			}
			id := rowID{v: int(r.Ints[0]), b: int(r.Ints[1])}
			row := rowsAcc[id]
			if row == nil {
				row = a.Floats(blockC)
				rowsAcc[id] = row
			}
			row[r.Ints[2]] = r.Data[0]
		}
		// Deterministic output order.
		ids := make([]rowID, 0, len(rowsAcc))
		for id := range rowsAcc {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].v != ids[j].v {
				return ids[i].v < ids[j].v
			}
			return ids[i].b < ids[j].b
		})
		for _, id := range ids {
			keep = append(keep, RowBlock(id.v, id.b, rowsAcc[id]))
		}
		return keep
	})
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
