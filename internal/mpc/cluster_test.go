package mpc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func rec(key string, vals ...float64) Record { return Record{Key: key, Data: vals} }

func mustCollect(t testing.TB, c *Cluster) []Record {
	t.Helper()
	recs, err := c.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return recs
}

func TestRecordWords(t *testing.T) {
	r := Record{Key: "abcdefgh", Ints: []int64{1, 2}, Data: []float64{3}}
	// 1 header + 1 key word + 2 ints + 1 float = 5.
	if got := r.Words(); got != 5 {
		t.Errorf("Words = %d, want 5", got)
	}
	if got := (Record{}).Words(); got != 1 {
		t.Errorf("empty Words = %d, want 1", got)
	}
	if got := (Record{Key: "abcdefghi"}).Words(); got != 3 { // 9 bytes → 2 words
		t.Errorf("9-byte key Words = %d, want 3", got)
	}
}

func TestDistributeBalances(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 100})
	var recs []Record
	for i := 0; i < 40; i++ {
		recs = append(recs, rec(fmt.Sprintf("k%02d", i), 1))
	}
	if err := c.Distribute(recs); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		if n := len(c.Store(m)); n < 5 || n > 15 {
			t.Errorf("machine %d got %d records", m, n)
		}
	}
	if got := len(mustCollect(t, c)); got != 40 {
		t.Errorf("Collect lost records: %d", got)
	}
	if c.Metrics().Rounds != 0 {
		t.Error("Distribute should not count rounds")
	}
}

func TestDistributeOverCap(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 5})
	var recs []Record
	for i := 0; i < 20; i++ {
		recs = append(recs, rec("k", 1, 2, 3))
	}
	if err := c.Distribute(recs); !errors.Is(err, ErrLocalMemory) {
		t.Fatalf("want ErrLocalMemory, got %v", err)
	}
	// Cluster is poisoned.
	if err := c.Round(func(m int, l []Record, e Emit) []Record { return l }); !errors.Is(err, ErrFailed) {
		t.Fatalf("poisoned cluster accepted a round: %v", err)
	}
}

func TestRoundMovesRecords(t *testing.T) {
	c := New(Config{Machines: 3, CapWords: 1000})
	if err := c.Distribute([]Record{rec("a", 1), rec("b", 2)}); err != nil {
		t.Fatal(err)
	}
	// Every machine ships everything to machine 2.
	err := c.Round(func(m int, local []Record, emit Emit) []Record {
		for _, r := range local {
			emit(2, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Store(0)) != 0 || len(c.Store(2)) != 2 {
		t.Errorf("stores after round: %d, %d", len(c.Store(0)), len(c.Store(2)))
	}
	m := c.Metrics()
	if m.Rounds != 1 {
		t.Errorf("Rounds = %d", m.Rounds)
	}
	if m.CommWords != 2*rec("a", 1).Words() {
		t.Errorf("CommWords = %d", m.CommWords)
	}
}

func TestRoundEnforcesSendCap(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 4})
	if err := c.Distribute([]Record{rec("a", 1)}); err != nil {
		t.Fatal(err)
	}
	err := c.Round(func(m int, local []Record, emit Emit) []Record {
		if m == 0 {
			for i := 0; i < 10; i++ {
				emit(1, rec("x", float64(i)))
			}
		}
		return local
	})
	if !errors.Is(err, ErrLocalMemory) {
		t.Fatalf("want ErrLocalMemory on send, got %v", err)
	}
}

func TestRoundEnforcesResidencyCap(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 10})
	// Everyone sends 2 records (6 words < 10, send OK) to machine 0:
	// machine 0 ends with 4×6=24 > 10 words.
	err := c.Round(func(m int, local []Record, emit Emit) []Record {
		emit(0, rec("x", 1, 1))
		emit(0, rec("y", 1, 1))
		return nil
	})
	if !errors.Is(err, ErrLocalMemory) {
		t.Fatalf("want ErrLocalMemory on residency, got %v", err)
	}
}

func TestRoundBadDestination(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 100})
	err := c.Round(func(m int, local []Record, emit Emit) []Record {
		emit(7, rec("x"))
		return nil
	})
	if !errors.Is(err, ErrBadMachine) {
		t.Fatalf("want ErrBadMachine, got %v", err)
	}
}

func TestRoundPanicRecovered(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 100})
	err := c.Round(func(m int, local []Record, emit Emit) []Record {
		if m == 1 {
			panic("boom")
		}
		return local
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("machine panic not surfaced: %v", err)
	}
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []string {
		c := New(Config{Machines: 4, CapWords: 1000})
		_ = c.Round(func(m int, local []Record, emit Emit) []Record {
			for i := 0; i < 3; i++ {
				emit(0, rec(fmt.Sprintf("m%d-%d", m, i)))
			}
			return nil
		})
		var keys []string
		for _, r := range c.Store(0) {
			keys = append(keys, r.Key)
		}
		return keys
	}
	a := run()
	for trial := 0; trial < 10; trial++ {
		b := run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("delivery order differs across runs: %v vs %v", a, b)
			}
		}
	}
}

func TestLocalMapFreeButCapped(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 8})
	if err := c.Distribute([]Record{rec("a", 1), rec("b", 2)}); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Rounds
	if err := c.LocalMap(func(m int, local []Record) []Record { return local }); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().Rounds != before {
		t.Error("LocalMap consumed a round")
	}
	// Blowing up local state must trip the cap.
	err := c.LocalMap(func(m int, local []Record) []Record {
		for i := 0; i < 10; i++ {
			local = append(local, rec("pad", 1, 2, 3))
		}
		return local
	})
	if !errors.Is(err, ErrLocalMemory) {
		t.Fatalf("LocalMap over cap not caught: %v", err)
	}
}

func TestMetricsTrackPeaks(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 100})
	if err := c.Distribute([]Record{rec("a", 1, 2, 3, 4)}); err != nil { // 6 words on one machine
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.MaxLocalWords != 6 {
		t.Errorf("MaxLocalWords = %d, want 6", m.MaxLocalWords)
	}
	if m.TotalSpace != 6 {
		t.Errorf("TotalSpace = %d, want 6", m.TotalSpace)
	}
}

func TestFullyScalableCap(t *testing.T) {
	if got := FullyScalableCap(100, 100, 0.5, 1); got != 100 {
		t.Errorf("cap = %d, want 100", got)
	}
	if got := FullyScalableCap(16, 16, 0.25, 2); got != 8 {
		t.Errorf("cap = %d, want 8", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad eps not rejected")
		}
	}()
	FullyScalableCap(10, 10, 1.5, 1)
}

func TestNewPanics(t *testing.T) {
	for _, cfg := range []Config{{Machines: 0, CapWords: 1}, {Machines: 1, CapWords: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
