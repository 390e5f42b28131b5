package par

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The exported fan-outs are exactly GOMAXPROCS wide: one shard per
// available processor, capped by the item count.
func TestWorkersResolution(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{2, 100} {
			var calls atomic.Int32
			For(n, func(lo, hi int) { calls.Add(1) })
			if want := min(procs, n); int(calls.Load()) != want {
				t.Errorf("GOMAXPROCS=%d n=%d: For ran %d shards, want %d", procs, n, calls.Load(), want)
			}
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 8, 9, 1000} {
			hits := make([]int32, n)
			forN(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestShardsDisjointAndOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 5, 16} {
		n := 103
		type rng struct{ lo, hi int }
		ranges := make([]rng, 16)
		s := shards(workers, n, func(shard, lo, hi int) {
			ranges[shard] = rng{lo, hi}
		})
		if s > workers || s > n || s < 1 {
			t.Fatalf("workers=%d: shard count %d", workers, s)
		}
		prev := 0
		for i := 0; i < s; i++ {
			if ranges[i].lo != prev || ranges[i].hi <= ranges[i].lo {
				t.Fatalf("workers=%d: shard %d range [%d,%d) after %d", workers, i, ranges[i].lo, ranges[i].hi, prev)
			}
			prev = ranges[i].hi
		}
		if prev != n {
			t.Fatalf("workers=%d: shards cover [0,%d), want [0,%d)", workers, prev, n)
		}
	}
}

func TestForInlineWhenSerial(t *testing.T) {
	// workers=1 must run the body on the calling goroutine (no races on
	// non-atomic caller state even without synchronisation).
	x := 0
	forN(1, 100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x++
		}
	})
	if x != 100 {
		t.Fatalf("x = %d", x)
	}
}

// TestDeterministicSlotWrites is the package's contract in miniature:
// per-index writes produce bit-identical output at every fan-out width.
func TestDeterministicSlotWrites(t *testing.T) {
	n := 500
	ref := make([]float64, n)
	forN(1, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ref[i] = math.Sin(float64(i)) * 1e9
		}
	})
	for _, workers := range []int{2, 3, 8, 32} {
		out := make([]float64, n)
		forN(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = math.Sin(float64(i)) * 1e9
			}
		})
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: slot %d differs", workers, i)
			}
		}
	}
}

func TestMinMaxMatchesSerialExactly(t *testing.T) {
	n := 1234
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Cos(float64(i)*0.7) * float64(i%97)
	}
	wantMin, wantMax := math.Inf(1), math.Inf(-1)
	for i, v := range vals {
		if i%13 == 0 {
			continue // exercise the skip path
		}
		if v < wantMin {
			wantMin = v
		}
		if v > wantMax {
			wantMax = v
		}
	}
	for _, workers := range []int{1, 2, 7, 16} {
		mn, mx := minMax(workers, n, math.Inf(1), math.Inf(-1), func(i int) (float64, bool) {
			return vals[i], i%13 != 0
		})
		if math.Float64bits(mn) != math.Float64bits(wantMin) || math.Float64bits(mx) != math.Float64bits(wantMax) {
			t.Fatalf("workers=%d: (%v, %v), want (%v, %v)", workers, mn, mx, wantMin, wantMax)
		}
	}
}

func TestMinMaxEmptyAndAllSkipped(t *testing.T) {
	mn, mx := minMax(4, 0, math.Inf(1), math.Inf(-1), nil)
	if !math.IsInf(mn, 1) || !math.IsInf(mx, -1) {
		t.Fatalf("empty: (%v, %v)", mn, mx)
	}
	mn, mx = minMax(4, 50, math.Inf(1), math.Inf(-1), func(int) (float64, bool) { return 0, false })
	if !math.IsInf(mn, 1) || !math.IsInf(mx, -1) {
		t.Fatalf("all skipped: (%v, %v)", mn, mx)
	}
}

func TestForCtxMatchesFor(t *testing.T) {
	const n = 1000
	want := make([]int, n)
	forN(4, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			want[i] = i * i
		}
	})
	for _, workers := range []int{1, 3, 8} {
		got := make([]int, n)
		if err := forCtx(context.Background(), workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := forCtx(ctx, 4, 100, func(lo, hi int) { ran = true }); err == nil {
		t.Fatal("cancelled context returned nil")
	}
	if ran {
		t.Fatal("body ran despite pre-cancelled context")
	}
}

func TestForCtxCancelsInFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var processed atomic.Int64
	const n = 1 << 20
	err := forCtx(ctx, 2, n, func(lo, hi int) {
		if processed.Add(int64(hi-lo)) > forCtxChunk { // after the first couple of chunks...
			cancel()
		}
		time.Sleep(50 * time.Microsecond) // keep the fan-out slow enough to observe
	})
	if err == nil {
		t.Fatal("cancel mid-flight returned nil")
	}
	if got := processed.Load(); got >= n {
		t.Fatalf("all %d items processed despite cancellation", got)
	}
}
