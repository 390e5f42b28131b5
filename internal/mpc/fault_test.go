package mpc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// seedRecords loads a small deterministic workload.
func seedRecords(t testing.TB, c *Cluster, n int) {
	t.Helper()
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, Record{Key: fmt.Sprintf("k%03d", i), Ints: []int64{int64(i)}, Data: []float64{float64(i)}})
	}
	if err := c.Distribute(recs); err != nil {
		t.Fatal(err)
	}
}

func noopRound(c *Cluster) error {
	return c.Round(func(m int, local []Record, emit Emit) []Record { return local })
}

// rotateRound moves every record to the next machine, so the round's
// traffic is the whole resident state.
func rotateRound(c *Cluster) error {
	M := c.Machines()
	return c.Round(func(m int, local []Record, emit Emit) []Record {
		for _, r := range local {
			emit((m+1)%M, r)
		}
		return nil
	})
}

func TestInjectedCrashIsDistinguishable(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 1 << 12})
	seedRecords(t, c, 16)
	c.InjectFaults(&FaultPlan{Seed: 1, Crash: 1})
	err := noopRound(c)
	if !errors.Is(err, ErrMachineLost) || !errors.Is(err, ErrInjected) {
		t.Fatalf("crash error classes wrong: %v", err)
	}
	if c.FaultStats().Crashes != 1 {
		t.Errorf("stats: %+v", c.FaultStats())
	}
	// The victim's output is genuinely gone.
	var total int
	for m := 0; m < 4; m++ {
		total += len(c.Store(m))
	}
	if total >= 16 {
		t.Errorf("crash lost nothing: %d records survive", total)
	}
	// Sticky until restored.
	if err := noopRound(c); !errors.Is(err, ErrFailed) {
		t.Fatalf("failed cluster accepted a round: %v", err)
	}
}

func TestInjectedTransientLeavesStateIntact(t *testing.T) {
	c := New(Config{Machines: 4, CapWords: 1 << 12})
	seedRecords(t, c, 16)
	c.InjectFaults(&FaultPlan{Seed: 2, Transient: 1})
	err := noopRound(c)
	if !errors.Is(err, ErrInjected) || errors.Is(err, ErrMachineLost) {
		t.Fatalf("transient error classes wrong: %v", err)
	}
	var total int
	for m := 0; m < 4; m++ {
		total += len(c.Store(m))
	}
	if total != 16 {
		t.Errorf("transient fault mutated state: %d records", total)
	}
	if c.Metrics().Rounds != 0 {
		t.Errorf("aborted round was counted: %d", c.Metrics().Rounds)
	}
}

func TestInjectedDropAndDuplicateAreReported(t *testing.T) {
	for _, kind := range []struct {
		name string
		plan *FaultPlan
		want int // records on machine 1 after the round
	}{
		{"drop", &FaultPlan{Seed: 3, Drop: 1, PerMessage: 1}, 0},
		{"duplicate", &FaultPlan{Seed: 3, Duplicate: 1, PerMessage: 1}, 8},
	} {
		t.Run(kind.name, func(t *testing.T) {
			c := New(Config{Machines: 2, CapWords: 1 << 12})
			seedRecords(t, c, 4)
			c.InjectFaults(kind.plan)
			err := c.Round(func(m int, local []Record, emit Emit) []Record {
				for _, r := range local {
					emit(1, r)
				}
				return nil
			})
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("mangled round not reported: %v", err)
			}
			if got := len(c.Store(1)); got != kind.want {
				t.Errorf("machine 1 holds %d records, want %d", got, kind.want)
			}
		})
	}
}

// A round whose volumes fit the cap, but not with every message
// duplicated, fails because of the injection: the violation must match
// ErrInjected (retry as-is) as well as ErrLocalMemory, exactly like a
// violation under injected pressure — not read as a genuine one.
func TestInjectedDuplicatesOverCapAreInjected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		round func(c *Cluster) error
	}{
		// Each machine sends its 40 words (between cap/2 and cap).
		{"send", rotateRound},
		// Machine 0 sends 20 words to machine 1, which holds 40.
		{"residency", func(c *Cluster) error {
			return c.Round(func(m int, local []Record, emit Emit) []Record {
				if m != 0 {
					return local
				}
				half := len(local) / 2
				for _, r := range local[half:] {
					emit(1, r)
				}
				return local[:half]
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func() *Cluster {
				c := New(Config{Machines: 2, CapWords: 64})
				seedRecords(t, c, 20) // 4 words each, 40 per machine
				return c
			}
			if err := tc.round(fresh()); err != nil {
				t.Fatalf("fault-free round does not fit: %v", err)
			}
			c := fresh()
			c.InjectFaults(&FaultPlan{Seed: 3, Duplicate: 1, PerMessage: 1})
			err := tc.round(c)
			if !errors.Is(err, ErrInjected) || !errors.Is(err, ErrLocalMemory) {
				t.Fatalf("duplicate-induced cap violation classes wrong: %v", err)
			}
		})
	}
}

func TestInjectedPressureMatchesBothClasses(t *testing.T) {
	// 16 records ≈ 48 words on 1 machine; cap 64 fits, but at pressure
	// factor 0.25 the effective cap of 16 does not.
	c := New(Config{Machines: 1, CapWords: 64})
	seedRecords(t, c, 16)
	c.InjectFaults(&FaultPlan{Seed: 4, Pressure: 1, PressureFactor: 0.25})
	err := noopRound(c)
	if !errors.Is(err, ErrLocalMemory) || !errors.Is(err, ErrInjected) {
		t.Fatalf("pressure error classes wrong: %v", err)
	}
}

func TestPressureWithHeadroomIsHarmless(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 1 << 12})
	seedRecords(t, c, 4)
	c.InjectFaults(&FaultPlan{Seed: 5, Pressure: 1, PressureFactor: 0.5})
	if err := noopRound(c); err != nil {
		t.Fatalf("pressure under headroom failed the round: %v", err)
	}
	if c.FaultStats().Pressures != 1 {
		t.Errorf("pressure not recorded: %+v", c.FaultStats())
	}
}

// Identical (seed, fault-seed) pairs produce identical fault schedules.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() (string, FaultStats) {
		c := New(Config{Machines: 4, CapWords: 1 << 12})
		seedRecords(t, c, 16)
		c.InjectFaults(&FaultPlan{Seed: 7, Crash: 0.3, Transient: 0.3, Pressure: 0.3})
		var trace []string
		for i := 0; i < 10; i++ {
			err := noopRound(c)
			if err != nil {
				trace = append(trace, err.Error())
				c.Restore(c.Checkpoint()) // clear stickiness; state is whatever it is
			} else {
				trace = append(trace, "ok")
			}
		}
		return strings.Join(trace, ";"), c.FaultStats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("fault schedule not deterministic:\n%s %+v\n%s %+v", t1, s1, t2, s2)
	}
	if s1.Injected() == 0 {
		t.Fatal("schedule injected nothing at p=0.3 over 10 rounds")
	}
}

// The plan's tick is monotonic across Restore — a retried round sees
// fresh draws instead of re-hitting the same fault forever.
func TestFaultTickSurvivesRestore(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 1 << 12})
	seedRecords(t, c, 4)
	cp := c.Checkpoint()
	plan := &FaultPlan{Seed: 11, Transient: 0.5}
	c.InjectFaults(plan)
	for i := 0; i < 6; i++ {
		if err := noopRound(c); err != nil {
			c.Restore(cp)
		}
	}
	if got := plan.Stats().Ticks; got != 6 {
		t.Errorf("ticks = %d, want 6 (restore must not rewind the plan)", got)
	}
}

func TestMaxFaultsStopsInjection(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 1 << 12})
	seedRecords(t, c, 4)
	cp := c.Checkpoint()
	c.InjectFaults(&FaultPlan{Seed: 12, Transient: 1, MaxFaults: 2})
	fails := 0
	for i := 0; i < 8; i++ {
		if err := noopRound(c); err != nil {
			fails++
			c.Restore(cp)
		}
	}
	if fails != 2 {
		t.Errorf("%d faults fired, want MaxFaults=2", fails)
	}
}

func TestCheckpointRestoreRoundTripWithTrace(t *testing.T) {
	c := New(Config{Machines: 3, CapWords: 1 << 12})
	c.EnableTrace()
	seedRecords(t, c, 12)
	if err := rotateRound(c); err != nil {
		t.Fatal(err)
	}
	wantMetrics := c.Metrics()
	wantTrace := len(c.Trace())
	// Capture by value: Collect's records alias the live stores, which the
	// in-place mutation below edits.
	var wantKeys []string
	var wantVals []float64
	for _, r := range mustCollect(t, c) {
		wantKeys = append(wantKeys, r.Key)
		wantVals = append(wantVals, r.Data[0])
	}

	cp := c.Checkpoint()
	if cp.Words() == 0 {
		t.Fatal("checkpoint of a loaded cluster has zero words")
	}

	// Mutate heavily: more rounds, in-place payload edits, then poison.
	if err := rotateRound(c); err != nil {
		t.Fatal(err)
	}
	if err := c.LocalMap(func(m int, local []Record) []Record {
		for i := range local {
			if len(local[i].Data) > 0 {
				local[i].Data[0] = -1 // in-place mutation must not reach the snapshot
			}
		}
		return local
	}); err != nil {
		t.Fatal(err)
	}
	_ = c.LocalMap(func(m int, local []Record) []Record { panic("poison") })
	if c.Err() == nil {
		t.Fatal("cluster not poisoned")
	}

	c.Restore(cp)
	if c.Err() != nil {
		t.Fatalf("restore left sticky failure: %v", c.Err())
	}
	if got := c.Metrics(); got != wantMetrics {
		t.Errorf("metrics after restore: %+v, want %+v", got, wantMetrics)
	}
	if got := len(c.Trace()); got != wantTrace {
		t.Errorf("trace length after restore: %d, want %d", got, wantTrace)
	}
	gotRecs := mustCollect(t, c)
	if len(gotRecs) != len(wantKeys) {
		t.Fatalf("record count after restore: %d, want %d", len(gotRecs), len(wantKeys))
	}
	for i := range gotRecs {
		if gotRecs[i].Key != wantKeys[i] || gotRecs[i].Data[0] != wantVals[i] {
			t.Fatalf("record %d differs after restore: %+v, want %s/%v", i, gotRecs[i], wantKeys[i], wantVals[i])
		}
	}

	rs := c.Recovery()
	if rs.Checkpoints != 1 || rs.Restores != 1 || rs.CheckpointWords == 0 || rs.RestoredWords == 0 {
		t.Errorf("recovery stats not metered: %+v", rs)
	}
	if rs.RolledBackRounds == 0 {
		t.Error("rolled-back rounds not counted")
	}

	// The restored cluster keeps working.
	if err := rotateRound(c); err != nil {
		t.Fatalf("restored cluster broken: %v", err)
	}
}

func TestRestoreIntoSmallerClusterPanics(t *testing.T) {
	// A checkpoint restores only into a cluster of its own machine count:
	// smaller and larger clusters both panic.
	for _, into := range []int{2, 6} {
		cp := New(Config{Machines: 4, CapWords: 1 << 10}).Checkpoint()
		other := New(Config{Machines: into, CapWords: 1 << 10})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("restore of a 4-machine checkpoint into %d machines accepted", into)
				}
			}()
			other.Restore(cp)
		}()
	}
}

func TestRaiseCapOnlyRaises(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 100})
	c.RaiseCap(50)
	if c.CapWords() != 100 {
		t.Errorf("cap lowered to %d", c.CapWords())
	}
	c.RaiseCap(200)
	if c.CapWords() != 200 {
		t.Errorf("cap = %d, want 200", c.CapWords())
	}
}

// --- Satellite regressions: Store bounds, Collect on failure, emit latch,
// --- and ErrFailed propagation through every primitive.

func TestStoreOutOfRangeReturnsNil(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 64})
	if c.Store(-1) != nil || c.Store(2) != nil || c.Store(99) != nil {
		t.Error("out-of-range Store did not return nil")
	}
}

func TestCollectOnFailedCluster(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 64})
	seedRecords(t, c, 2)
	_ = c.LocalMap(func(m int, local []Record) []Record { panic("poison") })
	recs, err := c.Collect()
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("Collect on failed cluster: err = %v", err)
	}
	if recs != nil {
		t.Error("Collect returned records from a failed cluster")
	}
}

// A RoundFunc that retains emit and calls it after the round must panic
// with a clear message instead of silently corrupting later accounting.
func TestEmitLatchedAfterRound(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 1 << 10})
	var stale Emit
	if err := c.Round(func(m int, local []Record, emit Emit) []Record {
		if m == 0 {
			stale = emit
		}
		return local
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("late emit did not panic")
		}
		if !strings.Contains(fmt.Sprint(p), "after its round ended") {
			t.Fatalf("unclear late-emit panic: %v", p)
		}
	}()
	stale(1, Record{Key: "late"})
}

func TestErrFailedPropagatesThroughEveryPrimitive(t *testing.T) {
	poisoned := func() *Cluster {
		c := New(Config{Machines: 3, CapWords: 1 << 10})
		seedRecords(t, c, 6)
		_ = c.LocalMap(func(m int, local []Record) []Record { panic("poison") })
		return c
	}
	ops := []struct {
		name string
		run  func(c *Cluster) error
	}{
		{"Round", noopRound},
		{"LocalMap", func(c *Cluster) error {
			return c.LocalMap(func(m int, local []Record) []Record { return local })
		}},
		{"Distribute", func(c *Cluster) error { return c.Distribute([]Record{rec("x", 1)}) }},
		{"Broadcast", func(c *Cluster) error { return c.Broadcast(0, []Record{rec("b", 1)}) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			if err := op.run(poisoned()); !errors.Is(err, ErrFailed) {
				t.Fatalf("%s on failed cluster: %v", op.name, err)
			}
		})
	}
}

// After a panic inside LocalMap the cluster must refuse all work until a
// checkpoint restore, which fully revives it.
func TestLocalMapPanicThenRestoreRevives(t *testing.T) {
	c := New(Config{Machines: 2, CapWords: 1 << 10})
	seedRecords(t, c, 4)
	cp := c.Checkpoint()
	err := c.LocalMap(func(m int, local []Record) []Record {
		if m == 1 {
			panic("flaky dependency")
		}
		return local
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	if _, err := c.Collect(); !errors.Is(err, ErrFailed) {
		t.Fatal("Collect should refuse a failed cluster")
	}
	c.Restore(cp)
	if err := rotateRound(c); err != nil {
		t.Fatalf("revived cluster broken: %v", err)
	}
	if got := len(mustCollect(t, c)); got != 4 {
		t.Errorf("%d records after revive", got)
	}
}
