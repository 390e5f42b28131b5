// Package resilient executes MPC pipeline stages with fault recovery:
// checkpoint before the stage, bounded retries with virtual exponential
// backoff after injected faults, and resource escalation after genuine
// memory-cap violations — the way a real job raises its ask when the
// scheduler keeps killing it.
//
// Recovery never changes the algorithm's randomness: a stage retried
// after a fault re-runs with the same seed on the restored checkpoint, so
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
	stages      *obs.Counter
	retries     *obs.Counter
	escalations *obs.Counter
	backoffMs   *obs.Counter
	exhausted   *obs.Counter
}

var sink atomic.Pointer[resSink]

// Instrument exports the retry driver's meters on reg:
//
//	resilient_stages_total              Run invocations (stage executions)
//	resilient_retries_total             re-executions after a failed attempt
//	resilient_escalations_total         resource raises performed
//	resilient_backoff_virtual_ms_total  virtual backoff charged
//	resilient_exhausted_total           stages that ran out of budget
func Instrument(reg *obs.Registry) {
	sink.Store(&resSink{
		stages:      reg.Counter("resilient_stages_total", "Pipeline stage executions under the retry driver."),
		retries:     reg.Counter("resilient_retries_total", "Stage re-executions after a failed attempt."),
		escalations: reg.Counter("resilient_escalations_total", "Resource escalations (cap raises / machine growth)."),
		backoffMs:   reg.Counter("resilient_backoff_virtual_ms_total", "Virtual backoff milliseconds charged before retries."),
		exhausted:   reg.Counter("resilient_exhausted_total", "Stages abandoned after exhausting the retry or escalation budget."),
	})
}

// ErrExhausted is returned (wrapped around the last failure) when a stage
// ran out of retry or escalation budget.
var ErrExhausted = errors.New("resilient: retry budget exhausted")

// Options tunes the retrying driver. The zero value retries up to 3 times
// with 100 ms → 10 s virtual backoff and no escalation.
type Options struct {
	// MaxRetries is the number of re-executions after the first attempt;
	// 0 means 3. Use a negative value for "no retries at all".
	MaxRetries int
	// BackoffBaseMs is the first retry's virtual backoff; 0 means 100.
	BackoffBaseMs int
	// BackoffMaxMs caps the exponential growth; 0 means 10_000.
	BackoffMaxMs int
	// Seed drives backoff jitter, deterministically per (stage, attempt).
	Seed uint64
	// Escalate enables the resource-escalation path: after
	// EscalateAfter consecutive non-injected ErrLocalMemory failures the
	// driver restores the checkpoint, multiplies the cluster's memory cap
	// by CapFactor, and retries. Cap violations under injected memory
	// pressure or injected duplicates (errors that also match
	// mpc.ErrInjected) are transient by definition and only ever
	// plain-retried.
	Escalate bool
	// EscalateAfter is the consecutive-ErrLocalMemory threshold; 0 means 1
	// (a genuine cap violation is deterministic — retrying at the same
	// size cannot help).
	EscalateAfter int
	// CapFactor multiplies CapWords per escalation; 0 means 2.
	CapFactor float64
	// MaxEscalations bounds the escalation ladder; 0 means 2.
	MaxEscalations int
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

func (o Options) backoffBase() int {
	if o.BackoffBaseMs == 0 {
		return 100
	}
	return o.BackoffBaseMs
}

func (o Options) backoffMax() int {
	if o.BackoffMaxMs == 0 {
		return 10_000
	}
	return o.BackoffMaxMs
}

func (o Options) escalateAfter() int {
	if o.EscalateAfter == 0 {
		return 1
	}
	return o.EscalateAfter
}

func (o Options) capFactor() float64 {
	if o.CapFactor == 0 {
		return 2
	}
	return o.CapFactor
}

func (o Options) maxEscalations() int {
	if o.MaxEscalations == 0 {
		return 2
	}
	return o.MaxEscalations
}

// Stats reports what one stage execution cost in recovery terms.
type Stats struct {
	Stage            string
	Attempts         int   // step invocations (1 when nothing failed)
	Escalations      int   // resource raises performed
	VirtualBackoffMs int64 // total virtual backoff charged
}

// Step is one pipeline stage body. It is (re-)invoked on a cluster whose
// state equals the stage-entry checkpoint; attempt counts from 0. Steps
// must derive algorithmic randomness from their own fixed seeds — NOT
// from attempt — if recovered output is to match the fault-free run.
type Step func(attempt int) error

// Run executes step with checkpointed retries on c. On entry it snapshots
// the cluster; every retry first restores that snapshot (clearing the
// sticky failure a fault left behind). Retryable failures are the
// injected-fault class (mpc.ErrInjected), the transport-failure class
// (mpc.ErrTransport — connection loss or worker death, where Restore
// doubles as the healing step that rewrites state onto the surviving
// workers), and — when Escalate is set — genuine mpc.ErrLocalMemory
// violations, which trigger a resource raise
// instead of a plain retry. Any other error is returned immediately:
// re-running a deterministic algorithm on identical state cannot fix a
// coverage failure or a bad route.
//
// On final failure the checkpoint is restored one last time, so the
// caller receives a clean (if rolled-back) cluster to degrade on.
func Run(c *mpc.Cluster, stage string, opts Options, step Step) (Stats, error) {
	st := Stats{Stage: stage}
	snk := sink.Load()
	if snk != nil {
		snk.stages.Inc()
	}
	cp := c.Checkpoint()
	budget := opts.maxRetries()
	memFails := 0

	for attempt := 0; ; attempt++ {
		st.Attempts++
		err := step(attempt)
		if err == nil {
			return st, nil
		}

		injected := errors.Is(err, mpc.ErrInjected)
		transport := errors.Is(err, mpc.ErrTransport)
		memory := errors.Is(err, mpc.ErrLocalMemory)
		switch {
		case injected || transport:
			// Transient: restore and retry (injected pressure included —
			// the pressure was temporary, the same resources suffice).
			// Transport failures land here too: by the time the error
			// surfaced the backend already remapped dead workers onto
			// survivors, so the restore rewrites state through the healed
			// topology and the replay proceeds as if the fault never was.
			memFails = 0
		case memory && opts.Escalate:
			memFails++
		default:
			// Deterministic algorithm failure; retrying cannot help.
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
		if memFails >= opts.escalateAfter() {
			if st.Escalations >= opts.maxEscalations() {
				if snk != nil {
					snk.exhausted.Inc()
				}
				return st, fmt.Errorf("%w: stage %q exceeded %d escalations: %w", ErrExhausted, stage, st.Escalations, err)
			}
			c.RaiseCap(int(float64(c.CapWords()) * opts.capFactor()))
			st.Escalations++
			if snk != nil {
				snk.escalations.Inc()
			}
			memFails = 0
		}
	}
}

// virtualBackoff computes attempt's metered backoff: exponential growth
// from the base, capped, plus deterministic jitter in [0, base).
func virtualBackoff(opts Options, stage string, attempt int) int64 {
	base := int64(opts.backoffBase())
	max := int64(opts.backoffMax())
	b := base
	for i := 0; i < attempt && b < max; i++ {
		b *= 2
	}
	if b > max {
		b = max
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(stage))
	r := rng.NewHashed(opts.Seed, h.Sum64(), uint64(attempt))
	return b + int64(r.Float64()*float64(base))
}
