package mpc

import (
	"strings"
	"testing"

	"mpctree/internal/obs"
)

// The instrumented counters must agree with the model's own meters on a
// fault-free run: rounds, comm words, and the residency gauges.
func TestInstrumentMatchesMetrics(t *testing.T) {
	reg := obs.New()
	c := New(Config{Machines: 4, CapWords: 4096})
	c.Instrument(reg)
	var recs []Record
	for i := 0; i < 32; i++ {
		recs = append(recs, Record{Key: "k", Data: []float64{float64(i)}})
	}
	if err := c.Distribute(recs); err != nil {
		t.Fatal(err)
	}
	if err := rotateRound(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Broadcast(0, []Record{{Key: "blob", Data: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if got := reg.Counter("mpc_rounds_total", "").Value(); got != int64(m.Rounds) {
		t.Errorf("mpc_rounds_total = %d, want %d", got, m.Rounds)
	}
	if got := reg.Counter("mpc_comm_words_total", "").Value(); got != int64(m.CommWords) {
		t.Errorf("mpc_comm_words_total = %d, want %d", got, m.CommWords)
	}
	if got := reg.Gauge("mpc_peak_local_words", "").Value(); got != float64(m.MaxLocalWords) {
		t.Errorf("mpc_peak_local_words = %v, want %d", got, m.MaxLocalWords)
	}
	if got := reg.Gauge("mpc_total_space_words", "").Value(); got != float64(m.TotalSpace) {
		t.Errorf("mpc_total_space_words = %v, want %d", got, m.TotalSpace)
	}
	if got := reg.Gauge("mpc_machines", "").Value(); got != 4 {
		t.Errorf("mpc_machines = %v, want 4", got)
	}
}

// Checkpoint/restore counters must mirror RecoveryStats, and the monotone
// round counter must keep counting through rollbacks: after a restore,
// rounds_total - Metrics.Rounds == rolled_back_rounds_total.
func TestInstrumentRecoveryCounters(t *testing.T) {
	reg := obs.New()
	c := New(Config{Machines: 2, CapWords: 4096})
	c.Instrument(reg)
	if err := c.Distribute([]Record{{Key: "a", Data: []float64{1}}, {Key: "b", Data: []float64{2}}}); err != nil {
		t.Fatal(err)
	}
	cp := checkpoint(t, c)
	for i := 0; i < 3; i++ {
		if err := c.Round(func(m int, local []Record, emit Emit) []Record {
			for _, r := range local {
				emit((m+1)%2, r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.Restore(cp)

	rec := c.Recovery()
	checks := []struct {
		name string
		got  int64
		want int
	}{
		{"mpc_checkpoints_total", reg.Counter("mpc_checkpoints_total", "").Value(), rec.Checkpoints},
		{"mpc_checkpoint_words_total", reg.Counter("mpc_checkpoint_words_total", "").Value(), rec.CheckpointWords},
		{"mpc_restores_total", reg.Counter("mpc_restores_total", "").Value(), rec.Restores},
		{"mpc_restored_words_total", reg.Counter("mpc_restored_words_total", "").Value(), rec.RestoredWords},
		{"mpc_rolled_back_rounds_total", reg.Counter("mpc_rolled_back_rounds_total", "").Value(), rec.RolledBackRounds},
		{"mpc_rolled_back_comm_words_total", reg.Counter("mpc_rolled_back_comm_words_total", "").Value(), rec.RolledBackComm},
	}
	for _, ck := range checks {
		if ck.got != int64(ck.want) {
			t.Errorf("%s = %d, RecoveryStats says %d", ck.name, ck.got, ck.want)
		}
	}
	if rec.RolledBackRounds != 3 {
		t.Errorf("rolled back %d rounds, want 3", rec.RolledBackRounds)
	}
	roundsTotal := reg.Counter("mpc_rounds_total", "").Value()
	if diff := roundsTotal - int64(c.Metrics().Rounds); diff != int64(rec.RolledBackRounds) {
		t.Errorf("monotone rounds %d - model rounds %d = %d, want rolled-back %d",
			roundsTotal, c.Metrics().Rounds, diff, rec.RolledBackRounds)
	}
}

// Injected faults must land in the per-class counters and match FaultStats.
func TestInstrumentFaultCounters(t *testing.T) {
	reg := obs.New()
	c := New(Config{Machines: 2, CapWords: 4096})
	c.Instrument(reg)
	c.InjectFaults(&FaultPlan{Seed: 7, Crash: 0.3, Drop: 0.3, Pressure: 0.3})
	if err := c.Distribute([]Record{{Key: "a", Data: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	cp := checkpoint(t, c)
	injected := 0
	for i := 0; i < 30; i++ {
		err := c.Round(func(m int, local []Record, emit Emit) []Record { return local })
		if err != nil {
			injected++
			c.Restore(cp)
		}
	}
	if injected == 0 {
		t.Fatal("no faults injected at 30% rates over 30 rounds — seed problem")
	}
	fs := c.FaultStats()
	byClass := map[FaultKind]int{
		FaultCrash:     fs.Crashes,
		FaultTransient: fs.Transients,
		FaultDrop:      fs.Drops,
		FaultDuplicate: fs.Duplicates,
		FaultPressure:  fs.Pressures,
	}
	total := int64(0)
	for kind, want := range byClass {
		got := reg.Counter("mpc_faults_injected_total", "", "class", kind.String()).Value()
		if got != int64(want) {
			t.Errorf("mpc_faults_injected_total{class=%q} = %d, FaultStats says %d", kind, got, want)
		}
		total += got
	}
	if total == 0 {
		t.Error("fault counters all zero despite injections")
	}
}

// Wide counter values must stay aligned in the trace table (the header
// widths used to be hardcoded and overflowed).
func TestFormatTraceWideValues(t *testing.T) {
	stats := []RoundStat{
		{Index: 0, SentWords: 7, MaxSent: 3, MaxReceived: 4, MaxResidency: 12},
		{Index: 1, SentWords: 123456789012345, MaxSent: 98765432109876, MaxReceived: 55555555555, MaxResidency: 4444444444444},
	}
	out := FormatTrace(stats)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Every row must have its columns start at the same rune offsets: the
	// start position of each field is the same across all lines.
	starts := func(line string) []int {
		var out []int
		inField := false
		for i, r := range line {
			if r != ' ' && !inField {
				out = append(out, i)
			}
			inField = r != ' '
		}
		return out
	}
	// "max sent", "max recv", "max resident" contain spaces, so compare
	// data rows (pure numbers) against each other and check count.
	s1, s2 := starts(lines[1]), starts(lines[2])
	if len(s1) != 5 || len(s2) != 5 {
		t.Fatalf("data rows do not have 5 columns: %v %v\n%s", s1, s2, out)
	}
	for j := range s1 {
		if s1[j] != s2[j] {
			t.Fatalf("column %d misaligned between rows (%d vs %d):\n%s", j, s1[j], s2[j], out)
		}
	}
	// And every wide value must appear intact.
	for _, want := range []string{"123456789012345", "98765432109876", "4444444444444"} {
		if !strings.Contains(out, want) {
			t.Errorf("value %s missing:\n%s", want, out)
		}
	}
}
