package mpc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"mpctree/internal/rng"
)

func TestBroadcastReachesAll(t *testing.T) {
	for _, M := range []int{1, 2, 3, 7, 16} {
		c := New(Config{Machines: M, CapWords: 64})
		blob := []Record{rec("blob", 1, 2, 3)}
		if err := c.Broadcast(0, blob); err != nil {
			t.Fatalf("M=%d: %v", M, err)
		}
		for m := 0; m < M; m++ {
			found := false
			for _, r := range c.Store(m) {
				if r.Key == "blob" {
					found = true
				}
			}
			if !found {
				t.Fatalf("M=%d: machine %d missing blob", M, m)
			}
		}
	}
}

func TestBroadcastRoundsLogarithmic(t *testing.T) {
	// Blob of ~5 words, cap 10 ⇒ fanout 2 ⇒ rounds ≈ log₃ M.
	c := New(Config{Machines: 27, CapWords: 10})
	blob := []Record{rec("b", 1, 2, 3)} // 5 words
	if err := c.Broadcast(0, blob); err != nil {
		t.Fatal(err)
	}
	if r := c.Metrics().Rounds; r > 4 {
		t.Errorf("broadcast to 27 machines with fanout 2 took %d rounds", r)
	}
}

func TestBroadcastOversizeBlob(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 4})
	blob := []Record{rec("big", 1, 2, 3, 4, 5, 6, 7, 8)}
	if err := c.Broadcast(0, blob); !errors.Is(err, ErrLocalMemory) {
		t.Fatalf("want ErrLocalMemory, got %v", err)
	}
}

func TestBroadcastFromNonzeroSource(t *testing.T) {
	c := New(Config{Machines: 5, CapWords: 100})
	if err := c.Broadcast(3, []Record{rec("x", 1)}); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 5; m++ {
		if len(c.Store(m)) != 1 {
			t.Fatalf("machine %d has %d records", m, len(c.Store(m)))
		}
	}
}

// ownerRound sends every record to the owner of its key.
func ownerRound(c *Cluster) error {
	M := c.Machines()
	return c.Round(func(m int, local []Record, emit Emit) []Record {
		for _, r := range local {
			emit(Owner(r.Key, M), r)
		}
		return nil
	})
}

// Owner is FNV-64a mod M: the hash/fnv function, written out.
func TestOwnerMatchesFNV(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 2000; i++ {
		key := make([]byte, r.Intn(40))
		for j := range key {
			key[j] = byte(r.Uint64())
		}
		M := 1 + r.Intn(64)
		h := fnv.New64a()
		h.Write(key)
		if got, want := Owner(string(key), M), int(h.Sum64()%uint64(M)); got != want {
			t.Fatalf("Owner(%x, %d) = %d, hash/fnv gives %d", key, M, got, want)
		}
	}
}

// End-to-end determinism of a multi-primitive pipeline.
func TestPipelineDeterminism(t *testing.T) {
	run := func() []Record {
		c := New(Config{Machines: 5, CapWords: 4096})
		var recs []Record
		for i := 0; i < 120; i++ {
			recs = append(recs, rec(fmt.Sprintf("k%d", i%11), 1))
		}
		if err := c.Distribute(recs); err != nil {
			t.Fatal(err)
		}
		if err := ownerRound(c); err != nil {
			t.Fatal(err)
		}
		if err := rotateRound(c); err != nil {
			t.Fatal(err)
		}
		return mustCollect(t, c)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic record count")
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Data[0] != b[i].Data[0] {
			t.Fatal("nondeterministic pipeline output")
		}
	}
}

func BenchmarkRound(b *testing.B) {
	c := New(Config{Machines: 8, CapWords: 1 << 20})
	var recs []Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, rec(fmt.Sprintf("k%d", i), float64(i)))
	}
	if err := c.Distribute(recs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := c.Round(func(m int, local []Record, emit Emit) []Record {
			return local
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
