package mpc

import (
	"errors"
	"fmt"
	"testing"
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

func TestAggregateByKeySums(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 1000})
	var recs []Record
	want := map[string]float64{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i%7)
		recs = append(recs, rec(k, 1))
		want[k]++
	}
	if err := c.Distribute(recs); err != nil {
		t.Fatal(err)
	}
	sum := func(a, b Record) Record {
		a.Data[0] += b.Data[0]
		return a
	}
	if err := c.AggregateByKey(sum); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range mustCollect(t, c) {
		if _, dup := got[r.Key]; dup {
			t.Fatalf("key %q not fully aggregated", r.Key)
		}
		got[r.Key] = r.Data[0]
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("key %q: got %v, want %v", k, got[k], w)
		}
	}
}

// Map-side combining must keep AggregateByKey within caps even when one
// key appears on every machine many times (the hot-edge case of tree
// assembly): each machine sends one record per distinct key.
func TestAggregateByKeyHotKeyWithinCap(t *testing.T) {
	M := 8
	c := New(Config{Machines: M, CapWords: 64})
	// 20 copies of the same hot key per machine: raw shuffle would ship
	// 20·8 = 160 records (480 words) to one machine, over cap. Combined:
	// 8 records.
	err := c.LocalMap(func(m int, local []Record) []Record {
		for i := 0; i < 20; i++ {
			local = append(local, rec("hot", 1))
		}
		return local
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(a, b Record) Record { a.Data[0] += b.Data[0]; return a }
	if err := c.AggregateByKey(sum); err != nil {
		t.Fatal(err)
	}
	all := mustCollect(t, c)
	if len(all) != 1 || all[0].Data[0] != 160 {
		t.Fatalf("hot key aggregation wrong: %+v", all)
	}
}

func TestCombineByKeyOrderStable(t *testing.T) {
	recs := []Record{rec("b", 1), rec("a", 1), rec("b", 2), rec("c", 1), rec("a", 3)}
	sum := func(a, b Record) Record { a.Data[0] += b.Data[0]; return a }
	out := combineByKey(recs, sum)
	if len(out) != 3 || out[0].Key != "b" || out[0].Data[0] != 3 || out[1].Key != "a" || out[1].Data[0] != 4 {
		t.Fatalf("combineByKey = %+v", out)
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
		sum := func(a, b Record) Record { a.Data[0] += b.Data[0]; return a }
		if err := c.AggregateByKey(sum); err != nil {
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
