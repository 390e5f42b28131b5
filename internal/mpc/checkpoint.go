// Checkpoint/restore: roll the cluster back to a stage boundary after a
// fault. A checkpoint is a rollback point: the meters and round trace the
// driver holds, plus the stores to write back. Restoring clears the
// sticky failure — it is the one sanctioned way to recover a poisoned
// cluster. The word cost of reading and restoring stores is metered
// separately (RecoveryStats) so experiments can report recovery overhead
// without it contaminating the model's own cost measures.
//
// Only Checkpoint reads the stores out of the transport; its driver-side
// snapshot survives the death of the processes hosting them. Restore
// pushes stores back through the transport — after a remote worker died
// and its logical machines were remapped onto survivors, this is exactly
// the step that heals the cluster.
package mpc

import "fmt"

// Checkpoint is an immutable rollback point. Its stores are deep copies,
// so later in-place mutation by RoundFuncs (a common idiom) cannot
// corrupt them, and one checkpoint can be restored repeatedly.
type Checkpoint struct {
	stores     [][]Record
	metrics    Metrics
	roundStats []RoundStat
}

// RecoveryStats meters fault-recovery overhead. Unlike Metrics it is NOT
// rolled back by Restore — it exists precisely to account for work that
// rollback erases from the primary meters.
type RecoveryStats struct {
	Checkpoints      int // rollback points made, by Mark or Checkpoint
	CheckpointWords  int // cumulative words Checkpoint read from the stores
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

// Mark returns a rollback point at the current meters and round trace
// with the records of stores (not its meters), or none when stores is
// nil. It reads nothing through the transport.
func (c *Cluster) Mark(stores *Checkpoint) *Checkpoint {
	cp := &Checkpoint{stores: make([][]Record, c.cfg.Machines), metrics: c.m}
	if stores != nil {
		cp.stores = stores.stores
	}
	if c.trace {
		cp.roundStats = append([]RoundStat(nil), c.roundStats...)
	}
	c.recovery.Checkpoints++
	if c.obs != nil {
		c.obs.checkpoints.Inc()
	}
	return cp
}

// Checkpoint reads every store through the transport and returns a
// rollback point to them and to the current meters and trace, or an error
// if the cluster has failed or a read fails (which latches): a lost
// worker's stores are gone, so take it inside a step the driver retries.
func (c *Cluster) Checkpoint() (*Checkpoint, error) {
	if c.failed != nil {
		return nil, ErrFailed
	}
	stores := make([][]Record, c.cfg.Machines)
	for m := range stores {
		st, err := c.t.Read(m)
		if err != nil {
			return nil, c.fail(err)
		}
		stores[m] = st
	}
	copied, words := deepCopyStores(stores)
	cp := c.Mark(nil)
	cp.stores = copied
	c.recovery.CheckpointWords += words
	if c.obs != nil {
		c.obs.checkpointWords.Add(int64(words))
	}
	return cp, nil
}

// Restore rolls the cluster back to the checkpoint: every store is
// rewritten with the checkpoint's (an empty one clears it), meters and
// trace return to their marked values and the sticky failure is cleared.
// The installed FaultPlan (and its tick) is deliberately left alone — a
// retried round must see fresh fault draws. Restore panics if the
// checkpoint was made on a cluster with a different machine count.
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
