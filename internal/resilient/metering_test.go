package resilient_test

import (
	"testing"

	"mpctree/internal/core"
	"mpctree/internal/mpc"
	"mpctree/internal/obs"
	"mpctree/internal/resilient"
	"mpctree/internal/workload"
)

// An E16-style seeded chaos run must leave the three accounting layers in
// agreement: the retry driver's Stats, the cluster's RecoveryStats, and
// the exported registry counters. Every driver retry restores exactly one
// rollback point, every resilient stage makes exactly one and reads no
// store for it, so
//
//	resilient_retries_total == mpc_restores_total == Attempts − stages
//	mpc_checkpoints_total   == resilient_stages_total == stages
//	mpc_checkpoint_words_total == 0
//
// and the monotone round counter exceeds the model's by exactly the
// rolled-back work.
func TestChaosMeteringAgreement(t *testing.T) {
	const n, d = 32, 300
	pts := workload.UniformLattice(160, n, d, 512)

	reg := obs.New()
	resilient.Instrument(reg)
	c := mpc.New(mpc.Config{Machines: 4, CapWords: 1 << 22})
	c.Instrument(reg)
	c.InjectFaults(mpc.UniformFaults(0xC4A05, 0.05))

	_, info, err := core.EmbedPipeline(c, pts, core.PipelineOptions{
		Xi:         0.3,
		CK:         1,
		Seed:       161,
		Resilient:  true,
		MaxRetries: 60,
	})
	if err != nil {
		t.Fatalf("chaos pipeline failed to recover: %v", err)
	}
	if info.Degraded {
		t.Fatalf("pipeline degraded: %s", info.DegradedReason)
	}
	if info.Faults.Injected() == 0 {
		t.Fatal("no faults injected at 5% rates — seed problem; test asserts nothing")
	}

	const stages = 2 // fjlt + embed: d=300 exceeds the FJLT target k, so both run
	rec := info.Recovery
	retries := reg.Counter("resilient_retries_total", "").Value()

	if got := reg.Counter("resilient_stages_total", "").Value(); got != stages {
		t.Errorf("resilient_stages_total = %d, want %d", got, stages)
	}
	if rec.Checkpoints != stages {
		t.Errorf("RecoveryStats.Checkpoints = %d, want %d (one per stage)", rec.Checkpoints, stages)
	}
	if got := reg.Counter("mpc_checkpoints_total", "").Value(); got != int64(rec.Checkpoints) {
		t.Errorf("mpc_checkpoints_total = %d, RecoveryStats says %d", got, rec.Checkpoints)
	}
	if got := reg.Counter("mpc_checkpoint_words_total", "").Value(); got != 0 || rec.CheckpointWords != 0 {
		t.Errorf("mpc_checkpoint_words_total = %d, RecoveryStats says %d: a stage that loads its own inputs reads no store", got, rec.CheckpointWords)
	}

	wantRestores := info.Attempts - stages
	if wantRestores <= 0 {
		t.Fatalf("Attempts = %d: faults were injected but nothing retried", info.Attempts)
	}
	if int(retries) != wantRestores {
		t.Errorf("resilient_retries_total = %d, want Attempts−stages = %d", retries, wantRestores)
	}
	if rec.Restores != wantRestores {
		t.Errorf("RecoveryStats.Restores = %d, want Attempts−stages = %d", rec.Restores, wantRestores)
	}
	if got := reg.Counter("mpc_restores_total", "").Value(); got != retries {
		t.Errorf("mpc_restores_total = %d, resilient_retries_total = %d — a retry must restore exactly once", got, retries)
	}

	roundsTotal := reg.Counter("mpc_rounds_total", "").Value()
	if diff := roundsTotal - int64(c.Metrics().Rounds); diff != int64(rec.RolledBackRounds) {
		t.Errorf("monotone rounds %d − model rounds %d = %d, want rolled-back %d",
			roundsTotal, c.Metrics().Rounds, diff, rec.RolledBackRounds)
	}
	if got := reg.Counter("mpc_rolled_back_rounds_total", "").Value(); got != int64(rec.RolledBackRounds) {
		t.Errorf("mpc_rolled_back_rounds_total = %d, RecoveryStats says %d", got, rec.RolledBackRounds)
	}
}
