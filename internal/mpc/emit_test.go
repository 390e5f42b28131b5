package mpc

import (
	"errors"
	"runtime"
	"testing"
)

// emitAll is a round in which machine m emits perMachine records, the
// i-th to machine (m+i) mod M, so every machine sends to every machine,
// interleaved, and a store's records come from every sender. Record i
// of machine m carries Ints [m, i].
func emitAll(c *Cluster, perMachine int) error {
	M := c.Machines()
	return c.Round(func(m int, local []Record, emit Emit) []Record {
		for i := 0; i < perMachine; i++ {
			emit((m+i)%M, Record{Ints: []int64{int64(m), int64(i)}})
		}
		return nil
	})
}

// checkInboxOrder checks that machine d's store holds the records
// emitAll sent it in sender order, then emit order. With mangled set, a
// record may be missing or repeated right after itself, as drop and
// duplicate faults leave them.
func checkInboxOrder(t *testing.T, c *Cluster, d, perMachine int, mangled bool) {
	t.Helper()
	M := c.Machines()
	var want [][2]int64
	for m := 0; m < M; m++ {
		for i := 0; i < perMachine; i++ {
			if (m+i)%M == d {
				want = append(want, [2]int64{int64(m), int64(i)})
			}
		}
	}
	got := c.Store(d)
	w := 0
	for k, r := range got {
		id := [2]int64{r.Ints[0], r.Ints[1]}
		if mangled && k > 0 && id == [2]int64{got[k-1].Ints[0], got[k-1].Ints[1]} {
			continue // a duplicate follows its original
		}
		for mangled && w < len(want) && want[w] != id {
			w++ // dropped
		}
		if w == len(want) || want[w] != id {
			t.Fatalf("machine %d: record %d is %v, out of sender-then-emit order", d, k, id)
		}
		w++
	}
	if !mangled && len(got) != len(want) {
		t.Fatalf("machine %d holds %d records, want %d", d, len(got), len(want))
	}
}

// TestEmitOrderAcrossChunks pins delivery order through the chunked
// emit buffers: every store holds its records in sender order, then
// emit order, in a first round and in a larger second one that reuses
// the first round's chunks and adds more, and under drop and duplicate
// faults, which decide message by message in that order.
func TestEmitOrderAcrossChunks(t *testing.T) {
	const M = 4
	c := New(Config{Machines: M, CapWords: 1 << 20})
	for _, per := range []int{300, 1100, 5} {
		if err := emitAll(c, per); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < M; d++ {
			checkInboxOrder(t, c, d, per, false)
		}
	}
	for _, plan := range []*FaultPlan{{Seed: 7, Drop: 1, PerMessage: 0.3}, {Seed: 7, Duplicate: 1, PerMessage: 0.3}} {
		c := New(Config{Machines: M, CapWords: 1 << 20})
		c.InjectFaults(plan)
		if err := emitAll(c, 700); !errors.Is(err, ErrInjected) {
			t.Fatalf("want an injected fault, got %v", err)
		}
		for d := 0; d < M; d++ {
			checkInboxOrder(t, c, d, 700, true)
		}
	}
}

// TestFailedRoundDeliversNothingLater checks that the messages of a
// round that failed before delivery are not delivered by the next one.
func TestFailedRoundDeliversNothingLater(t *testing.T) {
	c := New(Config{Machines: 3, CapWords: 1 << 12})
	cp := checkpoint(t, c)
	err := c.Round(func(m int, local []Record, emit Emit) []Record {
		for i := 0; i < 40; i++ {
			emit(1, Record{Key: "stale"})
		}
		if m == 2 {
			emit(99, Record{})
		}
		return local
	})
	if !errors.Is(err, ErrBadMachine) {
		t.Fatalf("want ErrBadMachine, got %v", err)
	}
	c.Restore(cp)
	if err := emitAll(c, 2); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		checkInboxOrder(t, c, d, 2, false)
	}
}

// roundBytes runs one round on a fresh cluster of M machines in which
// every machine emits per records, round robin, and returns the bytes
// the round allocated.
func roundBytes(t *testing.T, M, per int) uint64 {
	t.Helper()
	c := New(Config{Machines: M, CapWords: 1 << 22})
	payload := []float64{1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := c.Round(func(m int, local []Record, emit Emit) []Record {
		for i := 0; i < per; i++ {
			emit((m+i)%M, Record{Data: payload})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRoundEmitAllocCeiling pins the bytes an emit-heavy round
// allocates per record emitted: 8 machines emit 20,000 records each,
// round robin. A record passes through its sender's emit buffer, its
// target's delivery buffer and the target's store, about 80 + 72 + 72
// bytes; chunks that double hold at most twice what they carry. An emit
// buffer grown by append re-grew through about five times its final
// size and read ≈ 540 bytes per record. A round that emits one record
// per machine must still allocate next to nothing (≈ 5–8 KB here):
// emit buffers pre-sized to 8,192 messages would cost 5 MB.
func TestRoundEmitAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	const M, per = 8, 20000
	perRecord := float64(roundBytes(t, M, per)) / (M * per)
	const ceiling = 320
	if perRecord > ceiling {
		t.Fatalf("an emit-heavy round allocated %.0f bytes per record emitted, ceiling %d", perRecord, ceiling)
	}
	t.Logf("emit-heavy round: %.0f bytes per record emitted (ceiling %d)", perRecord, ceiling)
	const smallCeiling = 16 << 10
	if b := roundBytes(t, M, 1); b > smallCeiling {
		t.Fatalf("a one-record-per-machine round allocated %d bytes, ceiling %d", b, smallCeiling)
	} else {
		t.Logf("one-record-per-machine round: %d bytes (ceiling %d)", b, smallCeiling)
	}
}
