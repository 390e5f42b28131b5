package par

import (
	"sync/atomic"
	"testing"
	"time"

	"mpctree/internal/obs"
)

// Instrumentation must meter fan-outs without changing their results.
func TestInstrumentMeters(t *testing.T) {
	reg := obs.New()
	Instrument(reg)
	defer sink.Store(nil)

	out := make([]int, 100)
	forN(4, len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			time.Sleep(10 * time.Microsecond)
			out[i] = i * i
		}
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d with instrumentation on", i, v)
		}
	}

	if got := reg.Counter("par_fanouts_total", "").Value(); got != 1 {
		t.Errorf("par_fanouts_total = %d, want 1", got)
	}
	if got := reg.Counter("par_shards_total", "").Value(); got != 4 {
		t.Errorf("par_shards_total = %d, want 4", got)
	}
	if got := reg.Counter("par_shard_busy_ns_total", "").Value(); got <= 0 {
		t.Errorf("par_shard_busy_ns_total = %d, want > 0", got)
	}
	if got := reg.Counter("par_fanout_wall_ns_total", "").Value(); got <= 0 {
		t.Errorf("par_fanout_wall_ns_total = %d, want > 0", got)
	}
	util := reg.Gauge("par_utilization", "").Value()
	if util <= 0 || util > 1.5 { // small slack: clock granularity on tiny shards
		t.Errorf("par_utilization = %v, want in (0, ~1]", util)
	}

	// Inline (single-shard) path meters too.
	shards(1, 10, func(shard, lo, hi int) {})
	if got := reg.Counter("par_fanouts_total", "").Value(); got != 2 {
		t.Errorf("par_fanouts_total after inline fan-out = %d, want 2", got)
	}
}

// MinMax rides on shards, so it must be metered and stay correct.
func TestInstrumentMinMax(t *testing.T) {
	reg := obs.New()
	Instrument(reg)
	defer sink.Store(nil)

	mn, mx := minMax(8, 1000, 1e300, -1e300, func(i int) (float64, bool) { return float64(i), true })
	if mn != 0 || mx != 999 {
		t.Fatalf("MinMax = (%v, %v) with instrumentation on", mn, mx)
	}
	if reg.Counter("par_fanouts_total", "").Value() == 0 {
		t.Error("MinMax fan-out not metered")
	}
}

// Without Instrument, the sink must stay nil — the hot path pays one
// atomic load and nothing else.
func TestUninstrumentedSinkNil(t *testing.T) {
	sink.Store(nil)
	var ran atomic.Int64
	forN(4, 8, func(lo, hi int) { ran.Add(int64(hi - lo)) })
	if ran.Load() != 8 {
		t.Fatalf("fan-out ran %d items, want 8", ran.Load())
	}
}
