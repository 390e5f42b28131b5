// Fault injection: a seeded, deterministic plan of machine crashes,
// transient round failures, message drops/duplication, and artificial
// memory pressure, consulted by Round at every round boundary.
//
// The paper's MPC model assumes machines never fail; real deployments do
// not. InjectFaults turns the simulator into a testbed for failure
// behavior: injected faults corrupt or abort a round exactly the way a
// real framework would observe it (output lost, messages dropped, a
// machine's memory ask suddenly denied) and surface as a distinguishable
// error class — ErrInjected — instead of the silent partial state a naive
// simulator would leave behind. The cluster's sticky failure is still set
// (the computation IS broken), but Restore clears it, so a driver that
// checkpoints can recover (see internal/resilient).
//
// Determinism: fault draws are a pure function of (plan seed, tick),
// where tick counts every round ever *attempted* on the cluster — it is
// monotonic and deliberately NOT rolled back by Restore. A retried round
// therefore sees fresh draws (otherwise the same fault would re-fire
// forever), while the full execution trace for a given (seed, fault-seed)
// pair — every fault, every retry, the final tree — is bit-reproducible.
package mpc

import (
	"errors"
	"fmt"

	"mpctree/internal/rng"
)

// Injected-fault error classes. Every injected fault matches ErrInjected
// via errors.Is; crashes additionally match ErrMachineLost, and a cap
// violation under injected memory pressure or injected duplicates
// additionally matches ErrLocalMemory (so drivers can tell "retry as-is"
// from a genuine cap violation, which is the algorithm's failure to
// report).
var (
	ErrInjected    = errors.New("mpc: injected fault")
	ErrMachineLost = errors.New("mpc: machine round output lost")
)

// FaultKind labels a class of injected fault.
type FaultKind uint8

// Fault classes a FaultPlan can inject.
const (
	FaultNone      FaultKind = iota
	FaultCrash               // one machine's round output (keep + sends) is lost
	FaultTransient           // the round aborts before any state change
	FaultDrop                // a subset of this round's messages is dropped
	FaultDuplicate           // a subset of this round's messages is delivered twice
	FaultPressure            // CapWords is temporarily reduced for this round
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultTransient:
		return "transient"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultPressure:
		return "pressure"
	}
	return "none"
}

// FaultPlan is a seeded schedule of fault injections. Probabilities are
// per round and per class; at most one class fires per round (drawn in
// the fixed order crash, transient, drop, duplicate, pressure). The zero
// value injects nothing.
type FaultPlan struct {
	// Seed drives all fault randomness, independently of the algorithm
	// seed.
	Seed uint64
	// Per-round firing probabilities, each in [0, 1].
	Crash     float64
	Transient float64
	Drop      float64
	Duplicate float64
	Pressure  float64
	// PerMessage is the drop/duplication probability applied to each
	// message once a Drop or Duplicate fault fires; 0 means 0.25.
	PerMessage float64
	// PressureFactor multiplies CapWords while a Pressure fault is in
	// effect; 0 means 0.5. Values ≥ 1 make pressure a no-op.
	PressureFactor float64
	// MaxFaults stops injecting after this many faults have fired;
	// 0 means unlimited.
	MaxFaults int

	tick  uint64 // rounds attempted — monotonic, survives Restore
	stats FaultStats
}

// UniformFaults builds a plan injecting every class at probability p.
func UniformFaults(seed uint64, p float64) *FaultPlan {
	return &FaultPlan{Seed: seed, Crash: p, Transient: p, Drop: p, Duplicate: p, Pressure: p}
}

// FaultStats counts what a plan has injected so far.
type FaultStats struct {
	Ticks      int // round boundaries consulted
	Crashes    int
	Transients int
	Drops      int
	Duplicates int
	Pressures  int
}

// Injected is the total number of faults that fired.
func (s FaultStats) Injected() int {
	return s.Crashes + s.Transients + s.Drops + s.Duplicates + s.Pressures
}

// Stats returns what the plan has injected so far.
func (p *FaultPlan) Stats() FaultStats {
	if p == nil {
		return FaultStats{}
	}
	return p.stats
}

// injection is one round's drawn fault: its kind, the tick it fired at,
// the victim machine (crash only), and a private stream for per-message
// decisions.
type injection struct {
	kind    FaultKind
	tick    uint64
	machine int
	r       *rng.RNG
}

// draw consults the plan at a round boundary. It always consumes exactly
// one tick so the schedule is independent of which faults fire.
func (p *FaultPlan) draw(machines int) injection {
	t := p.tick
	p.tick++
	p.stats.Ticks++
	r := rng.NewHashed(p.Seed, 0xFA017, t)
	// Fixed draw order keeps the stream layout stable across plans.
	uCrash, uTrans, uDrop, uDup, uPress := r.Float64(), r.Float64(), r.Float64(), r.Float64(), r.Float64()
	if p.MaxFaults > 0 && p.stats.Injected() >= p.MaxFaults {
		return injection{kind: FaultNone, tick: t}
	}
	switch {
	case uCrash < p.Crash:
		p.stats.Crashes++
		return injection{kind: FaultCrash, tick: t, machine: r.Intn(machines), r: r}
	case uTrans < p.Transient:
		p.stats.Transients++
		return injection{kind: FaultTransient, tick: t, r: r}
	case uDrop < p.Drop:
		p.stats.Drops++
		return injection{kind: FaultDrop, tick: t, r: r}
	case uDup < p.Duplicate:
		p.stats.Duplicates++
		return injection{kind: FaultDuplicate, tick: t, r: r}
	case uPress < p.Pressure:
		p.stats.Pressures++
		return injection{kind: FaultPressure, tick: t, r: r}
	}
	return injection{kind: FaultNone, tick: t}
}

// perMessage returns the per-message mangling probability.
func (p *FaultPlan) perMessage() float64 {
	if p.PerMessage == 0 {
		return 0.25
	}
	return p.PerMessage
}

// pressuredCap returns the temporarily reduced cap.
func (p *FaultPlan) pressuredCap(capWords int) int {
	f := p.PressureFactor
	if f == 0 {
		f = 0.5
	}
	c := int(float64(capWords) * f)
	if c < 1 {
		c = 1
	}
	return c
}

// InjectFaults installs (or, with nil, removes) a fault plan on the
// cluster. The plan is consulted at every subsequent round boundary.
// Installing a plan on a mid-computation cluster is allowed; the plan's
// tick starts wherever it left off (plans are stateful and may be shared
// across clusters only sequentially, never concurrently).
func (c *Cluster) InjectFaults(p *FaultPlan) { c.faults = p }

// FaultStats reports what the installed plan (if any) has injected.
func (c *Cluster) FaultStats() FaultStats { return c.faults.Stats() }

func injectedCrashErr(machine int, tick uint64) error {
	return fmt.Errorf("%w: machine %d at tick %d (%w)", ErrMachineLost, machine, tick, ErrInjected)
}

func injectedTransientErr(tick uint64) error {
	return fmt.Errorf("%w: transient round failure at tick %d", ErrInjected, tick)
}

func injectedMangleErr(kind FaultKind, nmsgs int, tick uint64) error {
	verb := "dropped"
	if kind == FaultDuplicate {
		verb = "duplicated"
	}
	return fmt.Errorf("%w: %d messages %s at tick %d", ErrInjected, nmsgs, verb, tick)
}

// injectedCapErr marks a cap violation in a round whose injected fault —
// a reduced cap (pressure) or duplicated messages — counts toward the
// violating volume. If the violation was genuine, the replay, which draws
// fresh faults, reports it again without the injection.
func injectedCapErr(detail error, kind FaultKind, tick uint64) error {
	return fmt.Errorf("%w under injected %s at tick %d (%w)", detail, kind, tick, ErrInjected)
}
