// Cluster instrumentation: Instrument registers the simulator's cost
// meters on an obs.Registry so a live run exports them at /metrics.
//
// The registry series and the Metrics struct answer different questions.
// Metrics is the MODEL's account — Restore rolls it back, because rolled-
// back rounds never happened as far as the algorithm's cost profile is
// concerned. The obs counters are the OBSERVER's account — monotone, as
// Prometheus counters must be, so they keep counting through recovery.
// After a chaotic run, mpc_rounds_total ≥ Metrics.Rounds, and the
// difference is exactly the rolled-back work (also exported as
// mpc_rolled_back_rounds_total).
//
// Instrumentation is observational only: the sink is written, never read,
// by the simulator, and a nil sink costs one pointer test per round.
package mpc

import (
	"mpctree/internal/obs"
)

// obsSink holds the pre-registered series a cluster updates.
type obsSink struct {
	rounds    *obs.Counter
	commWords *obs.Counter
	roundSent *obs.Histogram

	peakLocal  *obs.Gauge
	totalSpace *obs.Gauge
	machines   *obs.Gauge
	capWords   *obs.Gauge

	checkpoints      *obs.Counter
	checkpointWords  *obs.Counter
	restores         *obs.Counter
	restoredWords    *obs.Counter
	rolledBackRounds *obs.Counter
	rolledBackComm   *obs.Counter

	faults map[FaultKind]*obs.Counter
}

// Instrument exports this cluster's meters on reg:
//
//	mpc_rounds_total              rounds executed (monotone; includes rolled-back rounds)
//	mpc_comm_words_total          words sent (monotone)
//	mpc_round_sent_words          histogram of per-round send volume
//	mpc_peak_local_words          peak per-machine residency gauge
//	mpc_total_space_words         peak total space gauge
//	mpc_machines, mpc_cap_words   cluster shape gauges
//	mpc_checkpoints_total, mpc_checkpoint_words_total,
//	mpc_restores_total, mpc_restored_words_total,
//	mpc_rolled_back_rounds_total, mpc_rolled_back_comm_words_total
//	                              recovery overhead counters
//	mpc_faults_injected_total{class=...}
//	                              injected faults by class
//
// Registration is idempotent, so several clusters instrumented on the
// same registry share series — the fleet view a real deployment exports.
//
// Clusters on a non-default transport label every series with
// backend=<transport name> (e.g. backend="tcp"), so a dashboard can split
// simulated from real-network cost. The reference backend stays
// unlabeled: its series names are the stable contract the end-to-end
// tests scrape.
func (c *Cluster) Instrument(reg *obs.Registry) {
	var lbl []string
	if name := c.t.Name(); name != "sim" {
		lbl = []string{"backend", name}
	}
	s := &obsSink{
		rounds:    reg.Counter("mpc_rounds_total", "MPC communication rounds executed, including rounds later rolled back by recovery.", lbl...),
		commWords: reg.Counter("mpc_comm_words_total", "Words sent over all rounds, including traffic later rolled back.", lbl...),
		roundSent: reg.Histogram("mpc_round_sent_words", "Per-round total send volume in words.", obs.DefaultWordBuckets(), lbl...),

		peakLocal:  reg.Gauge("mpc_peak_local_words", "Peak words resident on any machine at any round end.", lbl...),
		totalSpace: reg.Gauge("mpc_total_space_words", "Peak sum of resident words across machines.", lbl...),
		machines:   reg.Gauge("mpc_machines", "Simulated machine count.", lbl...),
		capWords:   reg.Gauge("mpc_cap_words", "Per-machine local memory cap in words.", lbl...),

		checkpoints:      reg.Counter("mpc_checkpoints_total", "Cluster snapshots taken.", lbl...),
		checkpointWords:  reg.Counter("mpc_checkpoint_words_total", "Words snapshotted by checkpoints.", lbl...),
		restores:         reg.Counter("mpc_restores_total", "Checkpoint rollbacks performed.", lbl...),
		restoredWords:    reg.Counter("mpc_restored_words_total", "Words copied back by restores.", lbl...),
		rolledBackRounds: reg.Counter("mpc_rolled_back_rounds_total", "Rounds erased by rollbacks (wasted work).", lbl...),
		rolledBackComm:   reg.Counter("mpc_rolled_back_comm_words_total", "Comm words erased by rollbacks.", lbl...),

		faults: make(map[FaultKind]*obs.Counter),
	}
	for _, k := range []FaultKind{FaultCrash, FaultTransient, FaultDrop, FaultDuplicate, FaultPressure} {
		s.faults[k] = reg.Counter("mpc_faults_injected_total", "Faults injected by the installed plan, by class.", append([]string{"class", k.String()}, lbl...)...)
	}
	c.obs = s
	s.syncShape(c)
}

// syncShape pushes the cluster's current shape and peaks to the gauges.
func (s *obsSink) syncShape(c *Cluster) {
	s.machines.Set(float64(c.cfg.Machines))
	s.capWords.Set(float64(c.cfg.CapWords))
	s.peakLocal.SetMax(float64(c.m.MaxLocalWords))
	s.totalSpace.SetMax(float64(c.m.TotalSpace))
}

// observeRound records one executed round. Called from Round after the
// stat is final, regardless of whether the round also failed — a faulted
// round still moved its words.
func (s *obsSink) observeRound(c *Cluster, stat RoundStat) {
	s.rounds.Inc()
	s.commWords.Add(int64(stat.SentWords))
	s.roundSent.Observe(float64(stat.SentWords))
	s.syncShape(c)
}

// observeFault records an injected fault.
func (s *obsSink) observeFault(kind FaultKind) {
	if ctr, ok := s.faults[kind]; ok {
		ctr.Inc()
	}
}
