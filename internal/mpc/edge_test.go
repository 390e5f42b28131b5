package mpc

import (
	"errors"
	"testing"
)

func TestAggregateByKeyEmpty(t *testing.T) {
	c := New(Config{Machines: 3, CapWords: 1024})
	if err := c.AggregateByKey(func(a, b Record) Record { return a }); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastEmptyBlob(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 64})
	if err := c.Broadcast(1, nil); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().Rounds != 0 {
		t.Error("empty broadcast consumed rounds")
	}
}

func TestBroadcastBadSource(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 64})
	if err := c.Broadcast(5, []Record{rec("x")}); !errors.Is(err, ErrBadMachine) {
		t.Fatalf("want ErrBadMachine, got %v", err)
	}
}

func TestLocalMapPanicRecovered(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 64})
	err := c.LocalMap(func(m int, local []Record) []Record {
		if m == 0 {
			panic("kaput")
		}
		return local
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	// Cluster poisoned afterwards.
	if err := c.LocalMap(func(m int, local []Record) []Record { return local }); !errors.Is(err, ErrFailed) {
		t.Fatalf("poisoned cluster accepted work: %v", err)
	}
}

func TestMetricsAccumulateAcrossPrimitives(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 4096})
	var recs []Record
	for i := 0; i < 50; i++ {
		recs = append(recs, rec("k", float64(i)))
	}
	if err := c.Distribute(recs); err != nil {
		t.Fatal(err)
	}
	if err := rotateRound(c); err != nil {
		t.Fatal(err)
	}
	r1 := c.Metrics().Rounds
	if err := c.Broadcast(0, []Record{rec("blob", 1)}); err != nil {
		t.Fatal(err)
	}
	r2 := c.Metrics().Rounds
	if r2 <= r1 || r1 < 1 {
		t.Errorf("rounds did not accumulate: %d then %d", r1, r2)
	}
	if c.Metrics().CommWords == 0 {
		t.Error("no communication recorded")
	}
}

// Single-machine cluster: every primitive degenerates gracefully.
func TestSingleMachinePrimitives(t *testing.T) {
	c := New(Config{Machines: 1, CapWords: 4096})
	var recs []Record
	for i := 0; i < 20; i++ {
		recs = append(recs, rec(string(rune('z'-i%5)), 1))
	}
	if err := c.Distribute(recs); err != nil {
		t.Fatal(err)
	}
	if err := c.Broadcast(0, []Record{rec("blob")}); err != nil {
		t.Fatal(err)
	}
	if err := rotateRound(c); err != nil {
		t.Fatal(err)
	}
	sum := func(a, b Record) Record { a.Data[0] += b.Data[0]; return a }
	if err := c.AggregateByKey(sum); err != nil {
		t.Fatal(err)
	}
	// 5 distinct point keys + blob.
	if got := len(mustCollect(t, c)); got != 6 {
		t.Errorf("%d records after pipeline", got)
	}
}

// Records keeping their identity through keep-path (no spurious copies).
func TestRoundKeepIdentity(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 1024})
	if err := c.Distribute([]Record{rec("a", 1), rec("b", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Round(func(m int, local []Record, emit Emit) []Record {
		return local
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(mustCollect(t, c)); got != 2 {
		t.Errorf("record count changed through keep: %d", got)
	}
}
