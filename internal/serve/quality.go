// Online quality auditing for served trees. When the registry has
// points registered alongside a tree, every successful load or hot
// reload kicks off a background auditor goroutine that samples seeded
// point pairs, measures distortion ratios dist_T(p,q)/‖p−q‖₂ against
// the ORIGINAL Euclidean metric, and publishes the quality_* series
// (labelled tree=<name>) plus a JSON result served under /v1/quality.
// Audits run strictly off the query path: they hold an immutable tree
// snapshot, never block queries or reloads, and a result is only
// installed if no newer generation has been audited meanwhile.
package serve

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"mpctree/internal/quality"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// pointSet binds a loaded point file to its path so /v1/quality can
// report provenance.
type pointSet struct {
	path string
	pts  []vec.Point
}

// QualityResult is one tree's latest audit outcome, served by
// /v1/quality.
type QualityResult struct {
	Tree          string          `json:"tree"`
	Generation    int64           `json:"generation"`
	PointsPath    string          `json:"points_path,omitempty"`
	AuditedUnixMs int64           `json:"audited_unix_ms"`
	DurationMs    float64         `json:"duration_ms"`
	Error         string          `json:"error,omitempty"`
	Report        *quality.Report `json:"report,omitempty"`
}

// EnableQuality turns on background auditing: every subsequent
// successful Load or Reload of a tree that has points registered (see
// LoadPoints) spawns an auditor goroutine with this configuration.
// Entries that already hold both a tree and points are audited
// immediately. logger may be nil.
func (r *Registry) EnableQuality(cfg quality.Config, logger *slog.Logger) {
	r.mu.Lock()
	r.qcfg = &cfg
	r.qlog = logger
	pending := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		pending = append(pending, e)
	}
	r.mu.Unlock()
	for _, e := range pending {
		r.maybeAudit(e, e.cur.Load())
	}
}

// LoadPoints reads the point file at path and attaches it to the named
// tree as the audit ground truth. The tree must already be registered.
// If auditing is enabled, an audit of the current snapshot starts
// immediately.
func (r *Registry) LoadPoints(name, path string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: points for unknown tree %q", name)
	}
	pts, err := workload.ReadPoints(path)
	if err != nil {
		return fmt.Errorf("serve: points for %q: %w", name, err)
	}
	e.points.Store(&pointSet{path: path, pts: pts})
	r.maybeAudit(e, e.cur.Load())
	return nil
}

// WaitAudits blocks until every in-flight background audit has
// finished. Tests and graceful shutdown use it; the serving path never
// does.
func (r *Registry) WaitAudits() { r.qwg.Wait() }

// Quality returns the latest audit result for the named tree (nil when
// no audit has completed yet).
func (r *Registry) Quality(name string) (*QualityResult, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown tree %q", name)
	}
	return e.qresult.Load(), nil
}

// QualityAll reports the latest audit result for every tree that has
// one, sorted by tree name.
func (r *Registry) QualityAll() []QualityResult {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	out := make([]QualityResult, 0, len(entries))
	for _, e := range entries {
		if res := e.qresult.Load(); res != nil {
			out = append(out, *res)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tree < out[j].Tree })
	return out
}

// collector lazily builds the per-tree quality collector. Registration
// on the obs registry is idempotent, so reload-recreated collectors
// share cells.
func (r *Registry) collector(e *entry, cfg quality.Config) *quality.Collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.qcol == nil {
		e.qcol = quality.NewCollector(r.reg, cfg, "tree", e.name)
	}
	return e.qcol
}

// maybeAudit spawns a background audit of the given snapshot when
// auditing is enabled and both a tree and points are present. The
// snapshot pins the audited (tree, generation) pair, so the audit is
// always attributed to a state that was actually installed.
func (r *Registry) maybeAudit(e *entry, snap *snapshot) {
	r.mu.Lock()
	cfgp := r.qcfg
	logger := r.qlog
	r.mu.Unlock()
	if cfgp == nil || snap == nil {
		return
	}
	t := snap.tree
	ps := e.points.Load()
	if ps == nil {
		return
	}
	cfg := *cfgp
	gen := snap.generation
	col := r.collector(e, cfg)
	r.qwg.Add(1)
	go func() {
		defer r.qwg.Done()
		start := time.Now()
		rep, err := quality.Audit(t, ps.pts, cfg)
		res := &QualityResult{
			Tree:          e.name,
			Generation:    gen,
			PointsPath:    ps.path,
			AuditedUnixMs: start.UnixMilli(),
			DurationMs:    float64(time.Since(start).Microseconds()) / 1000,
		}
		if err != nil {
			res.Error = err.Error()
			if logger != nil {
				logger.Error("quality_audit_failed", "tree", e.name, "generation", gen, "error", err.Error())
			}
		} else {
			res.Report = rep
			col.ObserveAudit(rep)
			if logger != nil {
				logger.Info("quality_audit", "tree", e.name, "generation", gen,
					"pairs", rep.SampledPairs, "mean_ratio", rep.MeanRatio,
					"max_ratio", rep.MaxRatio, "min_ratio", rep.MinRatio,
					"domination_violations", rep.DominationViolations,
					"bound_violated", rep.BoundViolated,
					"duration_ms", res.DurationMs)
			}
		}
		// Install unless a newer generation's audit already landed: a
		// reload racing this audit re-audits with a higher generation,
		// and that result must win regardless of goroutine ordering.
		for {
			old := e.qresult.Load()
			if old != nil && old.Generation > res.Generation {
				return
			}
			if e.qresult.CompareAndSwap(old, res) {
				return
			}
		}
	}()
}
