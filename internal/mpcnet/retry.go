// Retry policy for coordinator→worker ops: exponential backoff with
// deterministic jitter. Jitter is drawn from rng.NewHashed(seed, opSeq,
// attempt) rather than wall-clock randomness, so a run's retry schedule
// is a pure function of its seed — reproducible in tests and logs alike.
package mpcnet

import (
	"time"

	"mpctree/internal/rng"
)

// RetryPolicy governs how many times a single op is attempted on one
// worker and how long the coordinator waits between attempts. The zero
// value is usable and picks the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts is the total tries per op, dial included (default 4).
	// Once exhausted the worker is declared dead and its logical machines
	// are remapped onto survivors.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 25ms).
	// Attempt k waits BaseDelay·2^k, jittered.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff (default 1s).
	MaxDelay time.Duration
	// Seed feeds the jitter hash. Two coordinators with equal seeds
	// produce equal schedules.
	Seed uint64

	// Sleep is the wait hook, for tests that want a fake clock; nil means
	// time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 25 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return time.Second
	}
	return p.MaxDelay
}

// Backoff returns the wait before retrying op seq after failed attempt
// number attempt (0-based): BaseDelay·2^attempt capped at MaxDelay, then
// scaled by a deterministic jitter factor in [0.5, 1.0]. The factor comes
// from hashing (Seed, seq, attempt), so concurrent coordinators with
// different seeds decorrelate while a single run stays reproducible.
func (p RetryPolicy) Backoff(seq uint64, attempt int) time.Duration {
	d := p.baseDelay()
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= p.maxDelay() {
			d = p.maxDelay()
			break
		}
	}
	if d > p.maxDelay() {
		d = p.maxDelay()
	}
	u := rng.NewHashed(p.Seed, seq, uint64(attempt)).Float64()
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

// Wait sleeps for d through the Sleep hook, or time.Sleep when it is
// nil.
func (p RetryPolicy) Wait(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}
