package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpctree/internal/obs"
	"mpctree/internal/serve"
)

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// sink keeps kernel results alive so the timed calls cannot be elided.
var sink float64

// kernelLayers fills the hst.* and serve.* metrics by replaying the head
// of the workload's own stream twice with no socket: once as direct hst
// kernel calls on the verification trees, once through a replica mux
// built the way the fleet's replicas are, with a response recorder.
func (f *fleet) kernelLayers(v map[string]float64) error {
	var kernelTotal time.Duration
	var distNs, knnNs time.Duration
	var pairs, points int
	perKind := map[reqKind][]float64{} // kernel µs per request, cut/emd/medoid
	for _, r := range f.kernelQs {
		t := f.trees[r.tree]
		var dt time.Duration
		switch r.kind {
		case kDist:
			t0 := time.Now()
			for _, p := range r.q.Pairs {
				sink += t.Dist(p[0], p[1])
			}
			dt = time.Since(t0)
			distNs += dt
			pairs += len(r.q.Pairs)
		case kKNN:
			t0 := time.Now()
			for _, p := range r.q.Points {
				sink += float64(len(t.KNN(p, r.q.K)))
			}
			dt = time.Since(t0)
			knnNs += dt
			points += len(r.q.Points)
		case kCut:
			t0 := time.Now()
			sink += float64(len(t.CutAtScale(r.q.Scale)))
			dt = time.Since(t0)
		case kEMD:
			mu, err := serve.ParseMeasure(r.q.Mu, t.NumPoints())
			if err != nil {
				return err
			}
			nu, err := serve.ParseMeasure(r.q.Nu, t.NumPoints())
			if err != nil {
				return err
			}
			t0 := time.Now()
			sink += t.EMD(mu, nu)
			dt = time.Since(t0)
		case kMedoid:
			t0 := time.Now()
			_, total := t.MedoidLeaf()
			sink += total
			dt = time.Since(t0)
		}
		kernelTotal += dt
		if r.kind >= kCut {
			perKind[r.kind] = append(perKind[r.kind], float64(dt)/1e3)
		}
	}
	if pairs > 0 {
		v["hst.dist_ns_per_pair"] = float64(distNs) / float64(pairs)
	}
	if points > 0 {
		v["hst.knn_us_per_point"] = float64(knnNs) / 1e3 / float64(points)
	}
	v["hst.cut_us"] = mean(perKind[kCut])
	v["hst.emd_us"] = mean(perKind[kEMD])
	v["hst.medoid_us"] = mean(perKind[kMedoid])

	reg := serve.NewRegistry(obs.New())
	for _, name := range f.names {
		if err := reg.LoadWith(name, serve.StoreLoader(f.store, name)); err != nil {
			return err
		}
	}
	mux := http.NewServeMux()
	serve.NewServer(reg, serve.Options{Obs: obs.New()}).RegisterMux(mux)
	call := func(path string, body []byte) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		mux.ServeHTTP(rec, req)
		dt := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process %s: HTTP %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return dt, nil
	}
	var handlerTotal time.Duration
	handler := map[reqKind][]float64{}
	for _, r := range f.kernelQs {
		dt, err := call(kindPaths[r.kind], r.body)
		if err != nil {
			return err
		}
		handlerTotal += dt
		handler[r.kind] = append(handler[r.kind], float64(dt)/1e3)
	}
	for k := kDist; k <= kMedoid; k++ {
		v["serve.handler_"+kindNames[k]+"_us"] = medianOrZero(handler[k])
	}
	if len(f.kernelQs) > 0 {
		v["serve.overhead_us"] = float64(handlerTotal-kernelTotal) / 1e3 / float64(len(f.kernelQs))
	}
	var reloads []float64
	for i := 0; i < 5; i++ {
		body, _ := json.Marshal(serve.ReloadRequest{Tree: f.names[i%len(f.names)]})
		dt, err := call("/v1/trees/reload", body)
		if err != nil {
			return err
		}
		reloads = append(reloads, ms(dt))
	}
	v["serve.reload_ms"] = median(reloads)
	return nil
}

// writeSpans writes the run's recorded spans as a Chrome trace-event
// file, <traceDir>/<workload>.json, replacing the previous run's.
func writeSpans(c runConfig, procs []obs.TraceProcess) error {
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.traceDir, c.workload+".json")
	if err := obs.WriteChromeTraceFile(path, procs); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}
