// GET /v1/status: the fleet rollup. One JSON document aggregating what
// an operator otherwise assembles from four scrapes — per-replica
// health and tree tables, the merged tree view with its coherence
// verdict, answer-cache hit/mismatch statistics, and the quality-audit
// alarms of a representative replica — served from state the gate
// already maintains (health polls, response-observed snapshots, cache
// counters) plus one live quality fetch. Also here: TraceProcesses, the
// collector behind `treegate -trace-out`, which merges the gate's own
// sampled span forest with every replica's /trace/requests forest into
// the chrome-trace process list.
package gate

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"mpctree/internal/obs"
	"mpctree/internal/serve"
)

// gateStart anchors the uptime /v1/status reports.
var gateStart = time.Now()

// ReplicaStatus is one backend's row in the status rollup.
type ReplicaStatus struct {
	Backend string           `json:"backend"`
	Healthy bool             `json:"healthy"`
	Trees   []serve.TreeInfo `json:"trees"` // last polled table, sorted by name
}

// CacheStatus summarizes the answer cache for the rollup.
type CacheStatus struct {
	Entries    int   `json:"entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	Mismatches int64 `json:"mismatches"` // consistency double-check disagreements; must stay 0
	CheckEvery int   `json:"check_every,omitempty"`
}

// QualityAlarm is one tree whose latest audit is alarming: the audit
// errored, the mean-distortion bound was violated, or domination
// violations were found.
type QualityAlarm struct {
	Tree       string  `json:"tree"`
	Generation int64   `json:"generation,omitempty"`
	MeanRatio  float64 `json:"mean_ratio,omitempty"`
	Reason     string  `json:"reason"`
}

// StatusResponse is the GET /v1/status document.
type StatusResponse struct {
	Service         string              `json:"service"` // "treegate"
	Version         string              `json:"version"`
	UptimeSeconds   float64             `json:"uptime_seconds"`
	Backends        int                 `json:"backends"`
	HealthyReplicas int                 `json:"healthy_replicas"`
	Coherent        bool                `json:"coherent"` // manifest versions agree across healthy replicas
	Replicas        []ReplicaStatus     `json:"replicas"`
	Trees           []serve.TreeInfo    `json:"trees"` // merged fleet view
	Ensembles       map[string][]string `json:"ensembles,omitempty"`
	Cache           CacheStatus         `json:"cache"`
	QualitySource   string              `json:"quality_source,omitempty"` // replica the alarms came from
	QualityAlarms   []QualityAlarm      `json:"quality_alarms"`
}

// treeList snapshots one backend's polled tree table, sorted by name.
func (b *backendState) treeList() []serve.TreeInfo {
	b.mu.Lock()
	out := make([]serve.TreeInfo, 0, len(b.trees))
	for _, ti := range b.trees {
		out = append(out, ti)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// qualityAlarms decodes the quality listing fetchQuality reads and keeps
// only the alarming results. Best-effort: with no healthy replica, or an
// answer that is not a 200 listing, it yields no alarms and an empty
// source.
func (g *Gateway) qualityAlarms(reqID string) (alarms []QualityAlarm, source string) {
	alarms = []QualityAlarm{}
	fetched := g.fetchQuality("", reqID)
	if fetched == nil || fetched.status != http.StatusOK {
		return alarms, ""
	}
	var qr serve.QualityResponse
	if err := json.Unmarshal(fetched.body, &qr); err != nil {
		return alarms, ""
	}
	for _, res := range qr.Results {
		switch {
		case res.Error != "":
			alarms = append(alarms, QualityAlarm{Tree: res.Tree, Generation: res.Generation,
				Reason: "audit error: " + res.Error})
		case res.Report == nil:
		case res.Report.BoundViolated:
			alarms = append(alarms, QualityAlarm{Tree: res.Tree, Generation: res.Generation,
				MeanRatio: res.Report.MeanRatio, Reason: "mean distortion bound violated"})
		case res.Report.DominationViolations > 0:
			alarms = append(alarms, QualityAlarm{Tree: res.Tree, Generation: res.Generation,
				MeanRatio: res.Report.MeanRatio, Reason: "tree distance below base distance"})
		}
	}
	return alarms, fetched.backend
}

// handleStatus answers GET /v1/status.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := StatusResponse{
		Service:       "treegate",
		Version:       obs.Health(nil).Version,
		UptimeSeconds: time.Since(gateStart).Seconds(),
		Backends:      len(g.backends),
		Coherent:      len(g.skewedTrees()) == 0,
		Trees:         g.mergedTrees(),
		Ensembles:     g.ensembles,
		Replicas:      make([]ReplicaStatus, 0, len(g.backends)),
	}
	for _, b := range g.backends {
		healthy := b.healthy.Load()
		if healthy {
			st.HealthyReplicas++
		}
		st.Replicas = append(st.Replicas, ReplicaStatus{Backend: b.url, Healthy: healthy, Trees: b.treeList()})
	}
	hits, misses, evictions, entries := g.cache.Stats()
	st.Cache = CacheStatus{Entries: entries, Hits: hits, Misses: misses,
		Evictions: evictions, CheckEvery: g.checkN}
	if g.cacheMismatch != nil {
		st.Cache.Mismatches = g.cacheMismatch.Value()
	}
	st.QualityAlarms, st.QualitySource = g.qualityAlarms(obs.RequestIDFromContext(r.Context()))
	obs.WriteJSON(w, http.StatusOK, st)
}

// TraceProcesses assembles the merged gate+replica span forests for a
// chrome-trace export: the gate's own completed sampled roots (own, the
// gate tracer's buffer) plus each backend's /trace/requests forest. Each
// replica root's parent_span is the span_id of the gate forward attempt
// that caused it: the timeline stitches the two by it. Unreachable
// backends contribute an empty forest; export must work mid-outage.
func (g *Gateway) TraceProcesses(own *obs.TraceBuffer) []obs.TraceProcess {
	procs := []obs.TraceProcess{{Name: "treegate", Roots: own.Snapshots()}}
	for _, b := range g.backends {
		roots, _ := obs.FetchRequestTraces(g.client, b.url) // unreachable: an empty row
		procs = append(procs, obs.TraceProcess{Name: "replica " + b.url, Roots: roots})
	}
	return procs
}
