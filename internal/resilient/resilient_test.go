package resilient

import (
	"errors"
	"fmt"
	"testing"

	"mpctree/internal/mpc"
)

// loaded returns a 2-machine cluster holding n records and a checkpoint
// of them, the stores a stage over them rolls back to.
func loaded(t testing.TB, n int) (*mpc.Cluster, *mpc.Checkpoint) {
	t.Helper()
	c := mpc.New(mpc.Config{Machines: 2, CapWords: 1 << 12})
	if err := c.Distribute(records(n)); err != nil {
		t.Fatal(err)
	}
	return c, snapshot(t, c)
}

func snapshot(t testing.TB, c *mpc.Cluster) *mpc.Checkpoint {
	t.Helper()
	cp, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func records(n int) []mpc.Record {
	var recs []mpc.Record
	for i := 0; i < n; i++ {
		recs = append(recs, mpc.Record{Key: fmt.Sprintf("k%02d", i), Data: []float64{float64(i)}})
	}
	return recs
}

func keep(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record { return local }

func TestFirstTrySuccess(t *testing.T) {
	c, stores := loaded(t, 4)
	st, err := Run(c, stores, "ok", Options{}, func(attempt int) error {
		if attempt != 0 {
			t.Errorf("attempt = %d on first call", attempt)
		}
		return nil
	})
	if err != nil || st.Attempts != 1 || st.VirtualBackoffMs != 0 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

// Injected faults are retried from the checkpoint until the step succeeds.
func TestRetriesInjectedFaultsThenSucceeds(t *testing.T) {
	c, stores := loaded(t, 4)
	c.InjectFaults(&mpc.FaultPlan{Seed: 9, Transient: 1, MaxFaults: 2})
	runs := 0
	st, err := Run(c, stores, "flaky", Options{Seed: 1}, func(attempt int) error {
		runs++
		return c.Round(keep)
	})
	if err != nil {
		t.Fatalf("recoverable stage failed: %v", err)
	}
	if runs != 3 || st.Attempts != 3 {
		t.Errorf("attempts = %d/%d, want 3 (two faults + success)", runs, st.Attempts)
	}
	if st.VirtualBackoffMs <= 0 {
		t.Error("no virtual backoff charged")
	}
	if c.Err() != nil {
		t.Errorf("cluster left failed: %v", c.Err())
	}
}

// Non-retryable (deterministic) errors return immediately with the
// checkpoint restored.
func TestDeterministicErrorNotRetried(t *testing.T) {
	c, stores := loaded(t, 4)
	boom := errors.New("algorithm does not fit")
	runs := 0
	st, err := Run(c, stores, "det", Options{Seed: 1}, func(attempt int) error {
		runs++
		// Corrupt state, then fail: the driver must roll it back.
		if lerr := c.LocalMap(func(m int, local []mpc.Record) []mpc.Record { return nil }); lerr != nil {
			return lerr
		}
		return boom
	})
	if !errors.Is(err, boom) || errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if runs != 1 || st.Attempts != 1 {
		t.Errorf("deterministic error retried: %d attempts", runs)
	}
	recs, cerr := c.Collect()
	if cerr != nil || len(recs) != 4 {
		t.Errorf("checkpoint not restored on failure: %d records, %v", len(recs), cerr)
	}
}

// Budget exhaustion wraps ErrExhausted and leaves a restored cluster.
func TestExhaustionWrapsAndRestores(t *testing.T) {
	c, stores := loaded(t, 4)
	c.InjectFaults(&mpc.FaultPlan{Seed: 10, Transient: 1}) // never stops failing
	st, err := Run(c, stores, "doomed", Options{MaxRetries: 2, Seed: 1}, func(attempt int) error {
		return c.Round(keep)
	})
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, mpc.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if st.Attempts != 3 { // initial + 2 retries
		t.Errorf("attempts = %d, want 3", st.Attempts)
	}
	if c.Err() != nil {
		t.Errorf("cluster left failed after final restore: %v", c.Err())
	}
	if len(mustCollect(t, c)) != 4 {
		t.Error("state not rolled back on exhaustion")
	}
}

func TestNegativeMaxRetriesMeansNone(t *testing.T) {
	c, stores := loaded(t, 2)
	c.InjectFaults(&mpc.FaultPlan{Seed: 11, Transient: 1})
	st, err := Run(c, stores, "strict", Options{MaxRetries: -1}, func(attempt int) error {
		return c.Round(keep)
	})
	if !errors.Is(err, ErrExhausted) || st.Attempts != 1 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

// A genuine memory-cap violation is the algorithm's failure to report: it
// returns at once, unretried, with the checkpoint restored and the cap as
// it was. The cap is a parameter of the model, not a resource to raise.
func TestGenuineMemoryViolationFailsFast(t *testing.T) {
	c, stores := loaded(t, 4)
	capW := c.CapWords()
	st, err := Run(c, stores, "nofit", Options{Seed: 3}, func(attempt int) error {
		return c.LocalMap(func(m int, local []mpc.Record) []mpc.Record {
			return append(local, mpc.Record{Key: "big", Data: make([]float64, capW)})
		})
	})
	if !errors.Is(err, mpc.ErrLocalMemory) || errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if st.Attempts != 1 {
		t.Errorf("genuine memory error retried: %d attempts", st.Attempts)
	}
	if c.CapWords() != capW {
		t.Errorf("cap changed: %d → %d", capW, c.CapWords())
	}
	if c.Err() != nil || len(mustCollect(t, c)) != 4 {
		t.Errorf("checkpoint not restored after the violation: %v", c.Err())
	}
}

// Injected pressure is transient: the stage is replayed as-is until the
// squeeze passes, at the cap the run started with (a raised cap would
// change downstream parameter selection and break bit-identity with the
// fault-free run).
func TestInjectedPressureRetriedAtSameCap(t *testing.T) {
	c := mpc.New(mpc.Config{Machines: 1, CapWords: 64})
	var recs []mpc.Record
	for i := 0; i < 16; i++ {
		recs = append(recs, mpc.Record{Key: fmt.Sprintf("k%03d", i), Ints: []int64{1}, Data: []float64{1}})
	}
	if err := c.Distribute(recs); err != nil {
		t.Fatal(err)
	}
	c.InjectFaults(&mpc.FaultPlan{Seed: 4, Pressure: 1, PressureFactor: 0.25, MaxFaults: 2})
	startCap := c.CapWords()
	st, err := Run(c, snapshot(t, c), "squeezed", Options{Seed: 5}, func(attempt int) error {
		return c.Round(keep)
	})
	if err != nil {
		t.Fatalf("transient pressure not ridden out: %v", err)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two squeezed rounds, then success)", st.Attempts)
	}
	if c.CapWords() != startCap {
		t.Errorf("cap changed under injected pressure: %d → %d", startCap, c.CapWords())
	}
}

// Duplicated messages that push a round over the cap are an injected
// fault too: the stage is replayed as-is and, as under injected pressure,
// the cap stays put.
func TestInjectedDuplicatesOverCapRetriedAtSameCap(t *testing.T) {
	c := mpc.New(mpc.Config{Machines: 2, CapWords: 64})
	var recs []mpc.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, mpc.Record{Key: fmt.Sprintf("k%03d", i), Ints: []int64{1}, Data: []float64{1}})
	}
	if err := c.Distribute(recs); err != nil { // 40 words per machine
		t.Fatal(err)
	}
	c.InjectFaults(&mpc.FaultPlan{Seed: 4, Duplicate: 1, PerMessage: 1, MaxFaults: 2})
	startCap := c.CapWords()
	st, err := Run(c, snapshot(t, c), "echoed", Options{Seed: 5}, func(attempt int) error {
		// Every machine sends its 40 words to the other: fits, but not
		// twice over.
		return c.Round(func(m int, local []mpc.Record, emit mpc.Emit) []mpc.Record {
			for _, r := range local {
				emit(1-m, r)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("injected duplicates not ridden out: %v", err)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two duplicated rounds, then success)", st.Attempts)
	}
	if c.CapWords() != startCap {
		t.Errorf("cap changed under injected duplicates: %d → %d", startCap, c.CapWords())
	}
}

// A stage that loads its own inputs names no stores: Run reads nothing
// at entry, and each rollback clears every machine, so the attempt that
// succeeds loads its inputs onto empty machines, not onto what the failed
// attempts left behind.
func TestRollbackToNoStoresClears(t *testing.T) {
	c := mpc.New(mpc.Config{Machines: 2, CapWords: 1 << 12})
	c.InjectFaults(&mpc.FaultPlan{Seed: 9, Transient: 1, MaxFaults: 2})
	st, err := Run(c, nil, "load", Options{Seed: 1}, func(int) error {
		if err := c.Distribute(records(4)); err != nil {
			return err
		}
		return c.Round(keep)
	})
	if err != nil || st.Attempts != 3 {
		t.Fatalf("st=%+v err=%v, want success on the 3rd attempt", st, err)
	}
	if got := len(mustCollect(t, c)); got != 4 {
		t.Errorf("%d records after two rollbacks, want the 4 one attempt loads", got)
	}
	if rs := c.Recovery(); rs.Checkpoints != 1 || rs.CheckpointWords != 0 || rs.Restores != 2 {
		t.Errorf("recovery stats %+v: want 1 rollback point of 0 words read and 2 restores", rs)
	}
}

// A rollback writes back the stores the caller names at the meters of
// Run's entry, not of the snapshot: rounds run between the two stay
// metered, and a recovered stage meters as the fault-free one does.
func TestRollbackToEntryMeters(t *testing.T) {
	c, stores := loaded(t, 4)
	if err := c.Round(keep); err != nil {
		t.Fatal(err)
	}
	entry := c.Metrics()
	c.InjectFaults(&mpc.FaultPlan{Seed: 9, Transient: 1, MaxFaults: 1})
	st, err := Run(c, stores, "after", Options{Seed: 1}, func(int) error { return c.Round(keep) })
	if err != nil || st.Attempts != 2 {
		t.Fatalf("st=%+v err=%v, want success on the 2nd attempt", st, err)
	}
	if got := c.Metrics().Rounds; got != entry.Rounds+1 {
		t.Errorf("%d rounds metered, want the %d at entry plus the stage's 1", got, entry.Rounds)
	}
	if got := len(mustCollect(t, c)); got != 4 {
		t.Errorf("%d records after the rollback, want 4", got)
	}
}

// Identical options produce identical recovery traces (virtual backoff is
// deterministically jittered per (seed, stage, attempt)).
func TestBackoffDeterministic(t *testing.T) {
	run := func() Stats {
		c, stores := loaded(t, 4)
		c.InjectFaults(&mpc.FaultPlan{Seed: 20, Transient: 1, MaxFaults: 3})
		st, err := Run(c, stores, "stage-x", Options{MaxRetries: 5, Seed: 7}, func(attempt int) error {
			return c.Round(keep)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("recovery trace not deterministic: %+v vs %+v", a, b)
	}
	if a.VirtualBackoffMs == 0 {
		t.Error("no backoff charged over 3 retries")
	}
}

// Backoff starts at 100 ms, doubles per attempt and stops at 10 s, each
// step plus jitter in [0, 100) ms.
func TestBackoffGrowsAndCaps(t *testing.T) {
	opts := Options{Seed: 8}
	if b := virtualBackoff(opts, "s", 0); b < 100 || b >= 200 {
		t.Errorf("attempt 0 backoff %d outside [100,200)", b)
	}
	if b := virtualBackoff(opts, "s", 3); b < 800 || b >= 900 {
		t.Errorf("attempt 3 backoff %d outside [800,900)", b)
	}
	if b := virtualBackoff(opts, "s", 9); b < 10_000 || b >= 10_100 {
		t.Errorf("attempt 9 backoff %d outside [10000,10100) (cap+jitter)", b)
	}
}

func mustCollect(t testing.TB, c *mpc.Cluster) []mpc.Record {
	t.Helper()
	recs, err := c.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return recs
}
