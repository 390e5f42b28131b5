package mpc

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"mpctree/internal/obs"
)

// perRecordBroadcast is the reference Broadcast: the same fan-out plan,
// with every holder emitting the blob record by record through the public
// Round, so each copy travels through the emit and delivery buffers.
func perRecordBroadcast(c *Cluster, src int, blob []Record) error {
	if c.failed != nil {
		return ErrFailed
	}
	if src < 0 || src >= c.cfg.Machines {
		return c.fail(fmt.Errorf("%w: broadcast source %d", ErrBadMachine, src))
	}
	bw := WordsOf(blob)
	fanout := 0
	if bw > 0 {
		fanout = c.cfg.CapWords / bw
	}
	if bw > 0 && fanout < 1 {
		return c.fail(fmt.Errorf("%w: broadcast blob of %d words exceeds cap %d", ErrLocalMemory, bw, c.cfg.CapWords))
	}
	if err := c.t.Append(src, blob); err != nil {
		return c.fail(err)
	}
	if err := c.refreshSpace(); err != nil {
		return err
	}
	if bw == 0 {
		return nil
	}
	holders := map[int]bool{src: true}
	for len(holders) < c.cfg.Machines {
		plan := make(map[int][]int)
		next := 0
		var hs []int
		for h := range holders {
			hs = append(hs, h)
		}
		sort.Ints(hs)
		assigned := 0
		for _, h := range hs {
			for k := 0; k < fanout && assigned < c.cfg.Machines-len(holders); {
				for next < c.cfg.Machines && holders[next] {
					next++
				}
				if next >= c.cfg.Machines {
					break
				}
				plan[h] = append(plan[h], next)
				next++
				k++
				assigned++
			}
		}
		err := c.Round(func(m int, local []Record, emit Emit) []Record {
			for _, tgt := range plan[m] {
				for _, r := range blob {
					emit(tgt, r)
				}
			}
			return local
		})
		if err != nil {
			return err
		}
		for _, tgts := range plan {
			for _, t := range tgts {
				holders[t] = true
			}
		}
	}
	return nil
}

// broadcastState is everything a broadcast can change that a driver can
// observe: the error, the cost meters, the round trace, the fault plan's
// account, the exported metrics, and every store.
type broadcastState struct {
	err     string
	classes [4]bool // ErrInjected, ErrMachineLost, ErrLocalMemory, ErrFailed
	metrics Metrics
	trace   []RoundStat
	faults  FaultStats
	exposed string
	stores  [][]Record
}

func observeBroadcast(t *testing.T, c *Cluster, reg *obs.Registry, err error) broadcastState {
	t.Helper()
	s := broadcastState{metrics: c.Metrics(), trace: c.Trace(), faults: c.FaultStats()}
	if err != nil {
		s.err = err.Error()
		s.classes = [4]bool{errors.Is(err, ErrInjected), errors.Is(err, ErrMachineLost), errors.Is(err, ErrLocalMemory), errors.Is(err, ErrFailed)}
	}
	var buf bytes.Buffer
	if werr := reg.WritePrometheus(&buf); werr != nil {
		t.Fatal(werr)
	}
	s.exposed = buf.String()
	for m := 0; m < c.Machines(); m++ {
		s.stores = append(s.stores, append([]Record(nil), c.Store(m)...))
	}
	return s
}

// TestBroadcastMatchesPerRecordRounds pins the by-reference Broadcast to
// the per-record reference over machine counts, fan-outs, sources, and
// seeded fault plans: errors, Metrics, Trace rows, FaultStats, exported
// metrics and every store must match after every attempt of a
// restore-and-retry loop, including attempts that end in an injected
// fault of each class.
func TestBroadcastMatchesPerRecordRounds(t *testing.T) {
	blob := make([]Record, 6)
	for i := range blob {
		blob[i] = Record{Key: fmt.Sprintf("blob%d", i), Tag: 7, Ints: []int64{int64(i)}, Data: []float64{float64(i), 0.5}}
	}
	bw := WordsOf(blob)
	caps := []int{
		bw - 1,   // the blob cannot be sent at all
		2*bw - 1, // fan-out 1
		3*bw + 5, // fan-out 3
		100 * bw, // one round to every machine
	}
	var fired FaultStats
	configs, faulted := 0, 0
	for _, M := range []int{1, 3, 8, 13} {
		for _, capWords := range caps {
			for _, src := range []int{0, M / 2, M - 1} {
				for seed := uint64(0); seed <= 16; seed++ {
					name := fmt.Sprintf("M=%d/cap=%d/src=%d/faults=%d", M, capWords, src, seed)
					run := func(bcast func(c *Cluster, src int, blob []Record) error) []broadcastState {
						c := New(Config{Machines: M, CapWords: capWords})
						c.EnableTrace()
						reg := obs.New()
						c.Instrument(reg)
						if err := c.Distribute([]Record{rec("a", 1), rec("b", 2), rec("c", 3)}); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if seed > 0 {
							plan := UniformFaults(seed, 0.2)
							plan.PerMessage = 0.3
							c.InjectFaults(plan)
						}
						cp := checkpoint(t, c)
						var states []broadcastState
						for attempt := 0; attempt < 3; attempt++ {
							err := bcast(c, src, blob)
							states = append(states, observeBroadcast(t, c, reg, err))
							if err == nil {
								break
							}
							c.Restore(cp)
						}
						return states
					}
					refStates := run(perRecordBroadcast)
					newStates := run((*Cluster).Broadcast)
					if len(refStates) != len(newStates) {
						t.Fatalf("%s: %d attempts by reference, %d per record", name, len(newStates), len(refStates))
					}
					for i := range refStates {
						want, got := refStates[i], newStates[i]
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s attempt %d:\nby reference %+v\nper record   %+v", name, i, got, want)
						}
						if want.classes[0] {
							faulted++
						}
					}
					last := refStates[len(refStates)-1].faults
					fired.Crashes += last.Crashes
					fired.Transients += last.Transients
					fired.Drops += last.Drops
					fired.Duplicates += last.Duplicates
					fired.Pressures += last.Pressures
					configs++
				}
			}
		}
	}
	if fired.Crashes == 0 || fired.Transients == 0 || fired.Drops == 0 || fired.Duplicates == 0 || fired.Pressures == 0 {
		t.Fatalf("fault plans did not fire every class: %+v", fired)
	}
	t.Logf("%d configurations, %d attempts ended in an injected fault; fired %+v", configs, faulted, fired)
}

// TestBroadcastAllocCeiling pins the bytes one Broadcast allocates: the
// blob is copied once into each machine's store and nowhere else, so 50k
// eight-word records to 8 machines cost about 8 blob-sized record arrays
// whether the fan-out tree takes one round or three. Moving the blob
// record by record through emit and delivery buffers cost 39–62 blobs.
func TestBroadcastAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	const n, machines = 50000, 8
	blob := make([]Record, n)
	payload := make([]float64, 7)
	for i := range blob {
		blob[i] = Record{Data: payload} // 1 + 7 = 8 words
	}
	blobBytes := float64(n) * float64(unsafe.Sizeof(Record{}))
	for _, tc := range []struct {
		capWords, rounds int
	}{
		{1 << 22, 1}, // fan-out 10: one round
		{1 << 19, 3}, // fan-out 1: 1 → 2 → 4 → 8 holders
	} {
		c := New(Config{Machines: machines, CapWords: tc.capWords})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := c.Broadcast(0, blob); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := c.Metrics().Rounds; got != tc.rounds {
			t.Fatalf("cap %d: %d rounds, want %d", tc.capWords, got, tc.rounds)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / blobBytes
		const ceiling = 9
		if ratio > ceiling {
			t.Fatalf("cap %d: Broadcast allocated %.2f× the blob's record bytes, ceiling %d×", tc.capWords, ratio, ceiling)
		}
		t.Logf("cap %d (%d rounds): Broadcast allocated %.2f× the blob's record bytes (ceiling 9×)", tc.capWords, tc.rounds, ratio)
	}
}
