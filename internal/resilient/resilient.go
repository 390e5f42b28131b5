// Package resilient executes MPC pipeline stages with fault recovery:
// a rollback point at stage entry, then bounded retries with virtual
// exponential backoff after injected faults and transport failures, each
// replaying the stage from the rollback point. Any other failure — a genuine
// memory-cap violation included — is the algorithm reporting failure, as
// the fully scalable MPC model prescribes, and returns at once: each
// machine's memory is a fixed parameter of the model, never raised
// mid-run.
//
// Recovery never changes the algorithm's randomness: a stage retried
// after a fault re-runs with the same seed on the restored state, so
// a recovered run produces output bit-identical to a fault-free run of
// the same seeds. The only per-attempt reseeding is of the driver's own
// backoff jitter, derived deterministically from (Options.Seed, stage,
// attempt) — execution traces are therefore reproducible end to end for
// a fixed (seed, fault-seed) pair.
//
// Backoff is virtual: attempts are charged wall-clock-equivalent
// milliseconds in Stats.VirtualBackoffMs, but nothing sleeps. Tests and
// experiments measure recovery cost without paying it.
package resilient

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"mpctree/internal/mpc"
	"mpctree/internal/obs"
	"mpctree/internal/rng"
)

// resSink holds the retry driver's optional instrumentation series.
// Observational only: counters are written on recovery decisions the
// driver was making anyway; they never influence one.
type resSink struct {
	stages    *obs.Counter
	retries   *obs.Counter
	backoffMs *obs.Counter
	exhausted *obs.Counter
}

var sink atomic.Pointer[resSink]

// Instrument exports the retry driver's meters on reg:
//
//	resilient_stages_total              Run invocations (stage executions)
//	resilient_retries_total             re-executions after a failed attempt
//	resilient_backoff_virtual_ms_total  virtual backoff charged
//	resilient_exhausted_total           stages that ran out of budget
func Instrument(reg *obs.Registry) {
	sink.Store(&resSink{
		stages:    reg.Counter("resilient_stages_total", "Pipeline stage executions under the retry driver."),
		retries:   reg.Counter("resilient_retries_total", "Stage re-executions after a failed attempt."),
		backoffMs: reg.Counter("resilient_backoff_virtual_ms_total", "Virtual backoff milliseconds charged before retries."),
		exhausted: reg.Counter("resilient_exhausted_total", "Stages abandoned after exhausting the retry budget."),
	})
}

// ErrExhausted is returned (wrapped around the last failure) when a stage
// ran out of retry budget.
var ErrExhausted = errors.New("resilient: retry budget exhausted")

// Virtual backoff: the first retry is charged backoffBaseMs, each later
// one twice the last, up to backoffMaxMs, plus jitter in [0, backoffBaseMs).
const (
	backoffBaseMs = 100
	backoffMaxMs  = 10_000
)

// Options tunes the retrying driver. The zero value retries up to 3 times.
type Options struct {
	// MaxRetries is the number of re-executions after the first attempt;
	// 0 means 3. Use a negative value for "no retries at all".
	MaxRetries int
	// Seed drives backoff jitter, deterministically per (stage, attempt).
	Seed uint64
}

func (o Options) maxRetries() int {
	if o.MaxRetries == 0 {
		return 3
	}
	if o.MaxRetries < 0 {
		return 0
	}
	return o.MaxRetries
}

// Stats reports what one stage execution cost in recovery terms.
type Stats struct {
	Stage            string
	Attempts         int   // step invocations (1 when nothing failed)
	VirtualBackoffMs int64 // total virtual backoff charged
}

// Step is one pipeline stage body. It is (re-)invoked on a cluster whose
// stores and meters equal the rollback point's; attempt counts from 0.
// Steps must derive algorithmic randomness from their own fixed seeds —
// NOT from attempt — if recovered output is to match the fault-free run.
type Step func(attempt int) error

// Run executes step with rollback and retries on c. The rollback point is
// the meters and round trace at entry, which the driver holds, and the
// records of stores — none when stores is nil, so a rollback clears every
// machine. Run reads nothing through the transport, so a worker lost
// anywhere in the stage is lost inside step. Every retry first restores
// the rollback point, clearing the sticky failure a fault left behind.
// Retryable failures are the injected-fault class (mpc.ErrInjected) and
// the transport-failure class (mpc.ErrTransport — connection loss or
// worker death, where the restore doubles as the healing step that
// rewrites state onto the surviving workers). Any other error is returned
// immediately: re-running a deterministic algorithm on identical state and
// the same memory cap cannot fix a genuine cap violation, a coverage
// failure or a bad route.
//
// On final failure the rollback point is restored one last time, so the
// caller receives a clean (if rolled-back) cluster to degrade on.
func Run(c *mpc.Cluster, stores *mpc.Checkpoint, stage string, opts Options, step Step) (Stats, error) {
	st := Stats{Stage: stage}
	snk := sink.Load()
	if snk != nil {
		snk.stages.Inc()
	}
	cp := c.Mark(stores)
	budget := opts.maxRetries()

	for attempt := 0; ; attempt++ {
		st.Attempts++
		err := step(attempt)
		if err == nil {
			return st, nil
		}

		// Transient failures are restored and retried: injected faults
		// (pressure and duplicates over the cap included — the squeeze was
		// temporary, the same resources suffice) and transport failures (by
		// the time the error surfaced the backend already remapped dead
		// workers onto survivors, so the restore rewrites state through the
		// healed topology and the replay proceeds as if the fault never
		// was). Anything else is a deterministic algorithm failure.
		if !errors.Is(err, mpc.ErrInjected) && !errors.Is(err, mpc.ErrTransport) {
			c.Restore(cp)
			return st, err
		}

		if attempt >= budget {
			c.Restore(cp)
			if snk != nil {
				snk.exhausted.Inc()
			}
			return st, fmt.Errorf("%w: stage %q failed %d attempts: %w", ErrExhausted, stage, st.Attempts, err)
		}

		backoff := virtualBackoff(opts, stage, attempt)
		st.VirtualBackoffMs += backoff
		if snk != nil {
			snk.retries.Inc()
			snk.backoffMs.Add(backoff)
		}

		c.Restore(cp)
	}
}

// virtualBackoff computes attempt's metered backoff: exponential growth
// from the base, capped, plus deterministic jitter in [0, base).
func virtualBackoff(opts Options, stage string, attempt int) int64 {
	b := int64(backoffBaseMs)
	for i := 0; i < attempt && b < backoffMaxMs; i++ {
		b *= 2
	}
	b = min(b, backoffMaxMs)
	h := fnv.New64a()
	_, _ = h.Write([]byte(stage))
	r := rng.NewHashed(opts.Seed, h.Sum64(), uint64(attempt))
	return b + int64(r.Float64()*backoffBaseMs)
}
