// Package fleet is the coordinator side of worker self-observation: a
// scraper that polls each mpcworker's debug endpoint and re-exports what
// it finds into the coordinator's own registry, so one scrape of the
// coordinator's /metrics shows the whole fleet.
//
// Re-export rules:
//
//   - every worker series reappears as worker_<name> (the mpcworker_
//     prefix is stripped first, so mpcworker_ops_total becomes
//     worker_ops_total and build_info becomes worker_build_info), with a
//     worker="<id>" label prepended;
//   - counters and histograms are re-exported as gauges holding the last
//     scraped value (a worker restart legitimately rewinds them, and a
//     scrape is a snapshot, not an increment stream); histograms flatten
//     to worker_<name>_sum / worker_<name>_count;
//   - per-worker liveness is explicit: worker_up{worker} is 1 after a
//     successful scrape and 0 after a failed one, and
//     worker_scrape_age_seconds{worker} keeps growing while a worker
//     stays unreachable — a SIGKILLed worker is visible as staleness, not
//     as silently frozen numbers.
//
// Fleet rollups are computed after every sweep: fleet_workers_up, and
// fleet_peak_resident_words — the maximum per-process residency across
// the fleet, which is the paper's O(s) per-machine space bound observed
// on live processes. Dead workers keep contributing their last-known
// peak: a machine that held W words before crashing really did hold them.
//
// Everything here is observational and pull-based; workers never learn
// they are being scraped.
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mpctree/internal/obs"
)

// Target is one worker debug endpoint.
type Target struct {
	ID  string // label value: the worker's index in the fleet
	URL string // base URL ("http://127.0.0.1:4102"); may be "" (never up)
}

// Scraper polls a fixed set of targets and re-exports into a registry.
type Scraper struct {
	reg     *obs.Registry
	targets []Target
	client  *http.Client

	mu       sync.Mutex
	lastOK   map[string]time.Time // per target id, zero when never scraped
	lastPeak map[string]float64   // last-known mpcworker_peak_resident_words
	lastUp   map[string]bool

	stop chan struct{}
	done chan struct{}
}

// New builds a scraper over the given targets. Scraped series land in
// reg; nothing is polled until ScrapeOnce or Start.
func New(reg *obs.Registry, targets []Target) *Scraper {
	return &Scraper{
		reg:      reg,
		targets:  targets,
		client:   &http.Client{Timeout: 3 * time.Second},
		lastOK:   make(map[string]time.Time),
		lastPeak: make(map[string]float64),
		lastUp:   make(map[string]bool),
	}
}

// Start polls every interval until Stop. The first sweep runs
// immediately, so metrics exist before the first interval elapses.
func (s *Scraper) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.ScrapeOnce()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.ScrapeOnce()
			}
		}
	}()
}

// Stop halts a Start loop and waits for the in-flight sweep to finish.
func (s *Scraper) Stop() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

// ScrapeOnce sweeps every target once and refreshes the rollups.
func (s *Scraper) ScrapeOnce() {
	now := time.Now()
	for _, t := range s.targets {
		err := s.scrapeTarget(t)
		s.mu.Lock()
		if err == nil {
			s.lastOK[t.ID] = now
			s.lastUp[t.ID] = true
		} else {
			s.lastUp[t.ID] = false
			s.mu.Unlock()
			s.reg.Counter("fleet_scrape_errors_total",
				"Failed scrapes of a worker debug endpoint.", "worker", t.ID).Inc()
			s.mu.Lock()
		}
		up := 0.0
		if s.lastUp[t.ID] {
			up = 1
		}
		age := 0.0
		if ok := s.lastOK[t.ID]; !ok.IsZero() {
			age = now.Sub(ok).Seconds()
		}
		s.mu.Unlock()
		s.reg.Gauge("worker_up",
			"1 when the worker's last scrape succeeded, 0 when it failed.", "worker", t.ID).Set(up)
		s.reg.Gauge("worker_scrape_age_seconds",
			"Seconds since the worker was last scraped successfully; grows while it is unreachable.",
			"worker", t.ID).Set(age)
	}
	s.rollup()
}

// scrapeTarget pulls one /metrics.json snapshot and re-exports it.
func (s *Scraper) scrapeTarget(t Target) error {
	if t.URL == "" {
		return fmt.Errorf("fleet: worker %s has no obs endpoint", t.ID)
	}
	resp, err := s.client.Get(strings.TrimSuffix(t.URL, "/") + "/metrics.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: worker %s: %s", t.ID, resp.Status)
	}
	var doc struct {
		Metrics []obs.Value `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("fleet: worker %s: %v", t.ID, err)
	}
	for _, v := range doc.Metrics {
		name := "worker_" + strings.TrimPrefix(v.Name, "mpcworker_")
		labels := relabel(v.Labels, t.ID)
		switch v.Kind {
		case "histogram":
			s.reg.Gauge(name+"_sum", "Scraped from the worker: "+v.Help, labels...).Set(v.Value)
			s.reg.Gauge(name+"_count", "Scraped from the worker: observation count of "+v.Name+".", labels...).Set(float64(v.Count))
		default:
			s.reg.Gauge(name, "Scraped from the worker: "+v.Help, labels...).Set(v.Value)
		}
		if v.Name == "mpcworker_peak_resident_words" {
			s.mu.Lock()
			s.lastPeak[t.ID] = v.Value
			s.mu.Unlock()
		}
	}
	return nil
}

// relabel builds the ordered label pairs for a re-exported series:
// worker id first, then the source labels in sorted-key order — a
// deterministic order, so re-registration stays idempotent across sweeps.
func relabel(labels map[string]string, id string) []string {
	pairs := make([]string, 0, 2+2*len(labels))
	pairs = append(pairs, "worker", id)
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pairs = append(pairs, k, labels[k])
	}
	return pairs
}

// rollup refreshes the fleet-wide aggregates from the latest sweep.
func (s *Scraper) rollup() {
	s.mu.Lock()
	up := 0
	for _, u := range s.lastUp {
		if u {
			up++
		}
	}
	peak := 0.0
	for _, p := range s.lastPeak {
		if p > peak {
			peak = p
		}
	}
	s.mu.Unlock()
	s.reg.Gauge("fleet_workers", "Workers this coordinator scrapes.").Set(float64(len(s.targets)))
	s.reg.Gauge("fleet_workers_up", "Workers whose last scrape succeeded.").Set(float64(up))
	s.reg.Gauge("fleet_peak_resident_words",
		"Max per-process peak residency across the fleet — the paper's per-machine space bound, observed live. Dead workers keep their last-known peak.").Set(peak)
}

// FetchSpans reads each worker's retained service spans
// (/trace/requests) and returns one TraceProcess per target, in target
// order — the worker rows of a merged Perfetto timeline, one track per
// retained op. Unreachable workers yield a process with no roots: an
// empty row in the viewer, which is what a dead worker is.
func (s *Scraper) FetchSpans() []obs.TraceProcess {
	procs := make([]obs.TraceProcess, 0, len(s.targets))
	for _, t := range s.targets {
		p := obs.TraceProcess{Name: "worker " + t.ID}
		if t.URL != "" {
			p.Roots, _ = obs.FetchRequestTraces(s.client, t.URL) // unreachable: an empty row
		}
		procs = append(procs, p)
	}
	return procs
}
