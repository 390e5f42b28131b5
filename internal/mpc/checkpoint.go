// Checkpoint/restore: snapshot the cluster's stores and metrics at a
// stage boundary and roll back to it after a fault. Restoring clears the
// sticky failure — it is the one sanctioned way to recover a poisoned
// cluster. The word cost of snapshotting and restoring is metered
// separately (RecoveryStats) so experiments can report recovery overhead
// without it contaminating the model's own cost measures.
//
// Snapshots live on the DRIVER side, not on the machines: a checkpoint
// deep-copies every store out of the transport, so it survives the death
// of the processes hosting them. Restore pushes the snapshot back through
// the transport — after a remote worker died and its logical machines
// were remapped onto survivors, this is exactly the step that heals the
// cluster.
package mpc

import "fmt"

// Checkpoint is an immutable snapshot of a cluster's state. It deep-copies
// record payloads, so later in-place mutation by RoundFuncs (a common
// idiom) cannot corrupt it, and one checkpoint can be restored repeatedly.
type Checkpoint struct {
	stores     [][]Record
	metrics    Metrics
	roundStats []RoundStat
	words      int
}

// Words is the snapshot's size in 64-bit words (the recovery overhead a
// real framework would pay in storage/IO to persist it).
func (cp *Checkpoint) Words() int { return cp.words }

// RecoveryStats meters fault-recovery overhead. Unlike Metrics it is NOT
// rolled back by Restore — it exists precisely to account for work that
// rollback erases from the primary meters.
type RecoveryStats struct {
	Checkpoints      int // snapshots taken
	CheckpointWords  int // cumulative words snapshotted
	Restores         int // rollbacks performed
	RestoredWords    int // cumulative words copied back
	RolledBackRounds int // rounds erased by rollbacks (wasted work)
	RolledBackComm   int // comm words erased by rollbacks
}

// Recovery returns the recovery-overhead meters accumulated so far.
func (c *Cluster) Recovery() RecoveryStats { return c.recovery }

func deepCopyStores(stores [][]Record) ([][]Record, int) {
	out := make([][]Record, len(stores))
	words := 0
	for m, st := range stores {
		if len(st) == 0 {
			continue
		}
		cp := make([]Record, len(st))
		for i, r := range st {
			cp[i] = Record{Key: r.Key, Tag: r.Tag}
			if len(r.Ints) > 0 {
				cp[i].Ints = append([]int64(nil), r.Ints...)
			}
			if len(r.Data) > 0 {
				cp[i].Data = append([]float64(nil), r.Data...)
			}
			words += r.Words()
		}
		out[m] = cp
	}
	return out, words
}

// readStores pulls every machine's store out of the transport. A
// transport failure marks the cluster failed and yields nil stores for
// the unreachable machines — Checkpoint's documented caveat about
// snapshotting failed clusters applies.
func (c *Cluster) readStores() [][]Record {
	stores := make([][]Record, c.cfg.Machines)
	for m := 0; m < c.cfg.Machines; m++ {
		st, err := c.t.Read(m)
		if err != nil {
			c.fail(err)
			continue
		}
		stores[m] = st
	}
	return stores
}

// Checkpoint snapshots the stores, metrics, and trace. It may be taken on
// a healthy or a failed cluster (a failed cluster's snapshot captures the
// corrupted state — drivers checkpoint BEFORE risky stages, not after).
func (c *Cluster) Checkpoint() *Checkpoint {
	stores, words := deepCopyStores(c.readStores())
	cp := &Checkpoint{
		stores:  stores,
		metrics: c.m,
		words:   words,
	}
	if c.trace {
		cp.roundStats = append([]RoundStat(nil), c.roundStats...)
	}
	c.recovery.Checkpoints++
	c.recovery.CheckpointWords += words
	if c.obs != nil {
		c.obs.checkpoints.Inc()
		c.obs.checkpointWords.Add(int64(words))
	}
	return cp
}

// Restore rolls the cluster back to the checkpoint: stores, metrics, and
// trace return to their snapshotted values and the sticky failure is
// cleared. The installed FaultPlan (and its tick) is deliberately left
// alone — a retried round must see fresh fault draws. Restore panics if
// the checkpoint was taken on a cluster with a different machine count.
//
// Restoring is also the transport-level healing step: every store is
// rewritten through the transport, so logical machines that were remapped
// onto surviving workers after a host died receive their state back. If
// the transport cannot accept the restore (no survivors left), the
// failure stays latched instead of being cleared.
func (c *Cluster) Restore(cp *Checkpoint) {
	if len(cp.stores) != c.cfg.Machines {
		panic(fmt.Sprintf("mpc: restore of a %d-machine checkpoint into a %d-machine cluster", len(cp.stores), c.cfg.Machines))
	}
	rolledRounds, rolledComm := 0, 0
	if r := c.m.Rounds - cp.metrics.Rounds; r > 0 {
		c.recovery.RolledBackRounds += r
		rolledRounds = r
	}
	if w := c.m.CommWords - cp.metrics.CommWords; w > 0 {
		c.recovery.RolledBackComm += w
		rolledComm = w
	}
	stores, words := deepCopyStores(cp.stores)
	c.failed = nil
	for m, recs := range stores {
		if err := c.t.Write(m, recs); err != nil {
			c.fail(err)
			break
		}
	}
	c.m = cp.metrics
	c.roundStats = append([]RoundStat(nil), cp.roundStats...)
	c.recovery.Restores++
	c.recovery.RestoredWords += words
	if c.obs != nil {
		c.obs.restores.Inc()
		c.obs.restoredWords.Add(int64(words))
		c.obs.rolledBackRounds.Add(int64(rolledRounds))
		c.obs.rolledBackComm.Add(int64(rolledComm))
	}
}
