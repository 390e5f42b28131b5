package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"mpctree"
	"mpctree/internal/gate"
	"mpctree/internal/hst"
	"mpctree/internal/mpcnet"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/serve"
	"mpctree/internal/treestore"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// serveShape sizes a serve workload.
type serveShape struct {
	n, d, delta int
	// trees are store-published; plain queries rotate over all of them,
	// so a run's cost averages over several trees' shapes. The first
	// ensemble trees form the ensemble.
	trees, ensemble int
	replicas        int
	batch           int // dist pairs per request
	// reloadEvery inserts a hot reload through the gate after every
	// reloadEvery requests of each client; 0 = never.
	reloadEvery int
	// ensembleEvery sends every ensembleEvery-th dist of each client to
	// the ensemble.
	ensembleEvery int
	// pool > 0 draws dist/knn bodies from a fixed pool of that many,
	// rank k with probability ∝ (zipfV+k)^−zipfS; 0 makes every body
	// fresh. zipfV flattens the head, so no single body (whose cost
	// depends on the seed) carries a noticeable share of the traffic.
	pool         int
	zipfS, zipfV float64
	stream       int // requests generated per client; the stream wraps
	warmup       int // requests per client sent during set-up
	// rounds splits the measured time: each round sets up a fresh fleet
	// and drives an equal share of it. How fast a fleet serves varies
	// from one start to the next by more than it drifts within a run, so
	// several fleets per run average that away; setup_s is their median.
	rounds  int
	kernels int // stream requests replayed against the kernels and handlers
}

func mixedShape(tiny bool) serveShape {
	s := serveShape{n: 4096, d: 2, delta: 1024, trees: 9, ensemble: 3, replicas: 2, batch: 16,
		reloadEvery: 256, ensembleEvery: 8, stream: 40000, warmup: 1000, rounds: 4, kernels: 4000}
	if tiny {
		s.n, s.trees, s.stream, s.warmup, s.rounds, s.kernels = 256, 4, 400, 20, 2, 200
		s.reloadEvery = 32
	}
	return s
}

func hotShape(tiny bool) serveShape {
	s := mixedShape(tiny)
	s.reloadEvery = 0
	s.pool, s.zipfS, s.zipfV = 32768, 1.4, 128
	if tiny {
		s.pool = 64
	}
	return s
}

// reqKind tags a generated request.
type reqKind uint8

const (
	kDist reqKind = iota
	kKNN
	kCut
	kEMD
	kMedoid
	kEnsemble
	kReload
)

var kindNames = [...]string{"dist", "knn", "cut", "emd", "medoid", "ensemble", "reload"}

var kindPaths = [...]string{"/v1/dist", "/v1/knn", "/v1/cut", "/v1/emd", "/v1/medoid", "/v1/dist", "/v1/trees/reload"}

// request is one pre-encoded client request with what it takes to
// verify the answer.
type request struct {
	kind reqKind
	tree int // index of the tree queried or reloaded; -1 for the ensemble
	q    *workload.Query
	body []byte
}

// fleet is a running gate + replicas over a tree store, plus the
// verification copies of its trees and the client streams.
type fleet struct {
	shape    serveShape
	store    *treestore.Store
	dir      string
	names    []string
	trees    []*hst.Tree
	infos    []*mpctree.MPCInfo
	pts      []vec.Point
	medoids  [][2]float64  // per tree: point, total distance
	reg      *obs.Registry // the gate's metrics
	gw       *gate.Gateway
	tracer   *obs.Tracer // the gate's; nil when untraced
	gateURL  string
	servers  []*http.Server
	serveWG  sync.WaitGroup
	client   *http.Client
	streams  [][]request
	kernelQs []request
}

// traceBuf is how many completed sampled requests the gate and each
// replica of a traced fleet keep in memory for the span file.
const traceBuf = 4096

// startFleet builds and publishes the trees, starts the replicas and
// the gate, and generates the client streams. The replicas and gate
// run with the shipped treeserve/treegate defaults: metrics registry
// on, no logger, tracing off. A traced fleet turns tracing on as
// treegate -trace-sample 1 in front of treeserve -trace-sample 0 does:
// the gate samples every request, the replicas record the requests the
// gate sampled and serve them at /trace/requests.
func startFleet(c runConfig, sh serveShape, traced bool) (_ *fleet, err error) {
	f := &fleet{shape: sh}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	f.dir, err = os.MkdirTemp(c.workDir, "store-*")
	if err != nil {
		return nil, err
	}
	if f.store, err = treestore.Open(f.dir); err != nil {
		return nil, err
	}
	f.pts = workload.UniformLattice(c.seed, sh.n, sh.d, sh.delta)
	for i := 0; i < sh.trees; i++ {
		// The options treembed -mpc -store publishes with.
		tree, info, err := mpctree.EmbedMPC(f.pts, embedOptions(embedSeed(c.seed, i), 1<<22, nil))
		if err != nil {
			return nil, fmt.Errorf("building tree %d: %w", i, err)
		}
		name := fmt.Sprintf("t-%d", i)
		if _, err := f.store.Save(name, tree); err != nil {
			return nil, err
		}
		// Verify against the store's bytes, exactly what replicas serve.
		served, _, err := f.store.Load(name)
		if err != nil {
			return nil, err
		}
		p, total := served.MedoidLeaf()
		f.names = append(f.names, name)
		f.trees = append(f.trees, served)
		f.infos = append(f.infos, info)
		f.medoids = append(f.medoids, [2]float64{float64(p), total})
	}

	var backends []string
	for i := 0; i < sh.replicas; i++ {
		reg := serve.NewRegistry(obs.New())
		for _, name := range f.names {
			if err := reg.LoadWith(name, serve.StoreLoader(f.store, name)); err != nil {
				return nil, err
			}
		}
		opt := serve.Options{Obs: obs.New()}
		mux := http.NewServeMux()
		if traced {
			opt.Tracer = obs.NewTracer(0, traceBuf)
			obs.RegisterRequestTraces(mux, opt.Tracer.Buffer())
		}
		serve.NewServer(reg, opt).RegisterMux(mux)
		url, err := f.listen(mux)
		if err != nil {
			return nil, err
		}
		backends = append(backends, url)
	}
	if traced {
		f.tracer = obs.NewTracer(1, traceBuf)
	}
	f.reg = obs.New()
	f.gw, err = gate.New(gate.Options{
		Backends:        backends,
		Ensembles:       map[string][]string{"ens": f.names[:sh.ensemble]},
		CacheCheckEvery: 64,
		Retry:           mpcnet.RetryPolicy{MaxAttempts: 4, Seed: 1},
		Obs:             f.reg,
		Tracer:          f.tracer,
	})
	if err != nil {
		return nil, err
	}
	f.gw.Start()
	mux := http.NewServeMux()
	f.gw.RegisterMux(mux)
	if f.gateURL, err = f.listen(mux); err != nil {
		return nil, err
	}
	f.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
	}
	f.generate(c.seed)
	return f, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serveWG.Add(1)
	go func() {
		defer f.serveWG.Done()
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the gate and every server, waits for them, and removes
// the store.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for _, s := range f.servers {
		_ = s.Close()
	}
	f.serveWG.Wait()
	if f.gw != nil {
		f.gw.Stop()
	}
	if f.dir != "" {
		_ = os.RemoveAll(f.dir)
	}
}

// generate builds every client's request stream (plus the warm-up and
// kernel-replay requests, which come from the same generator) from the
// run seed alone.
func (f *fleet) generate(seed uint64) {
	sh := f.shape
	n := len(f.pts)
	var pool []request
	var zipf *rand.Zipf
	if sh.pool > 0 {
		qs := workload.Queries(seed^0x9001, n, sh.pool, sh.batch, 1e6, workload.QueryMix{Dist: 12, KNN: 4})
		for i := range qs {
			pool = append(pool, f.encode(&qs[i], i%sh.trees))
		}
		zipf = rand.NewZipf(rand.New(rand.NewSource(int64(seed))), sh.zipfS, sh.zipfV, uint64(sh.pool-1))
	}
	clients := gomaxprocs()
	f.streams = make([][]request, clients)
	for c := 0; c < clients; c++ {
		total := sh.stream + sh.warmup
		qs := workload.Queries(seed*31+uint64(c)+1, n, total, sh.batch, 1e6, workload.DefaultQueryMix())
		out := make([]request, 0, total+total/max(sh.reloadEvery, 1)+1)
		dists, reloads := 0, 0
		for i := range qs {
			var r request
			if k := qs[i].Kind; pool != nil && (k == workload.QueryDist || k == workload.QueryKNN) {
				r = pool[zipf.Uint64()]
			} else {
				r = f.encode(&qs[i], i%sh.trees)
			}
			if r.kind == kDist {
				dists++
				if sh.ensembleEvery > 0 && dists%sh.ensembleEvery == 0 {
					body, _ := json.Marshal(serve.DistRequest{Tree: "ens", Pairs: r.q.Pairs})
					r = request{kind: kEnsemble, tree: -1, q: r.q, body: body}
				}
			}
			out = append(out, r)
			if sh.reloadEvery > 0 && (i+1)%sh.reloadEvery == 0 {
				t := reloads % sh.trees
				reloads++
				body, _ := json.Marshal(serve.ReloadRequest{Tree: f.names[t]})
				out = append(out, request{kind: kReload, tree: t, body: body})
			}
		}
		f.streams[c] = out
	}
	// The kernel and handler replay uses the head of client 0's measured
	// stream: the same queries the workload sends, minus fan-out and
	// reloads, which are not single-kernel calls.
	for _, r := range f.streams[0][sh.warmup:] {
		if len(f.kernelQs) == sh.kernels {
			break
		}
		if r.kind <= kMedoid {
			f.kernelQs = append(f.kernelQs, r)
		}
	}
}

// encode turns a generated query into a request against tree t.
func (f *fleet) encode(q *workload.Query, t int) request {
	name := f.names[t]
	var v any
	var k reqKind
	switch q.Kind {
	case workload.QueryDist:
		k, v = kDist, serve.DistRequest{Tree: name, Pairs: q.Pairs}
	case workload.QueryKNN:
		k, v = kKNN, serve.KNNRequest{Tree: name, Points: q.Points, K: q.K}
	case workload.QueryCut:
		k, v = kCut, serve.CutRequest{Tree: name, Scale: q.Scale}
	case workload.QueryEMD:
		k, v = kEMD, serve.EMDRequest{Tree: name, Mu: q.Mu, Nu: q.Nu}
	default:
		k, v = kMedoid, serve.MedoidRequest{Tree: name}
	}
	body, _ := json.Marshal(v)
	return request{kind: k, tree: t, q: q, body: body}
}

// opRecord is one client request as the client saw it.
type opRecord struct {
	start time.Time
	lat   time.Duration
	kind  reqKind
	hit   bool
	err   error
}

// do sends one request and verifies the answer.
func (f *fleet) do(r request) opRecord {
	rec := opRecord{kind: r.kind, start: time.Now()}
	resp, err := f.client.Post(f.gateURL+kindPaths[r.kind], "application/json", bytes.NewReader(r.body))
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		if err == nil {
			rec.hit = resp.Header.Get("X-Gate-Cache") == "hit"
			err = f.verify(r, body)
		}
	}
	rec.lat = time.Since(rec.start)
	if err != nil {
		rec.err = fmt.Errorf("%s: %w", kindNames[r.kind], err)
	}
	return rec
}

// verify checks an answer against the serial computation on the
// verification copy of the tree: dist and knn (cache hits included) and
// ensemble mins bit for bit, the others exactly as well.
func (f *fleet) verify(r request, body []byte) error {
	switch r.kind {
	case kDist:
		var resp serve.DistResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		t := f.trees[r.tree]
		if len(resp.Dists) != len(r.q.Pairs) {
			return fmt.Errorf("%d answers for %d pairs", len(resp.Dists), len(r.q.Pairs))
		}
		for i, p := range r.q.Pairs {
			if want := t.Dist(p[0], p[1]); resp.Dists[i] != want {
				return fmt.Errorf("dist(%d,%d) = %v, want %v", p[0], p[1], resp.Dists[i], want)
			}
		}
	case kEnsemble:
		var resp serve.DistResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Dists) != len(r.q.Pairs) {
			return fmt.Errorf("%d answers for %d pairs", len(resp.Dists), len(r.q.Pairs))
		}
		for i, p := range r.q.Pairs {
			want := f.trees[0].Dist(p[0], p[1])
			for _, t := range f.trees[1:f.shape.ensemble] {
				want = min(want, t.Dist(p[0], p[1]))
			}
			if resp.Dists[i] != want {
				return fmt.Errorf("ensemble dist(%d,%d) = %v, want min %v", p[0], p[1], resp.Dists[i], want)
			}
		}
	case kKNN:
		var resp serve.KNNResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Neighbors) != len(r.q.Points) {
			return fmt.Errorf("%d answers for %d points", len(resp.Neighbors), len(r.q.Points))
		}
		t := f.trees[r.tree]
		for i, p := range r.q.Points {
			want := t.KNN(p, r.q.K)
			got := resp.Neighbors[i]
			if len(got) != len(want) {
				return fmt.Errorf("knn(%d): %d neighbors, want %d", p, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					return fmt.Errorf("knn(%d)[%d] = %+v, want %+v", p, j, got[j], want[j])
				}
			}
		}
	case kCut:
		var resp serve.CutResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		want := f.trees[r.tree].CutAtScale(r.q.Scale)
		if len(resp.Labels) != len(want) {
			return fmt.Errorf("cut: %d labels, want %d", len(resp.Labels), len(want))
		}
		for i := range want {
			if resp.Labels[i] != want[i] {
				return fmt.Errorf("cut: label[%d] = %d, want %d", i, resp.Labels[i], want[i])
			}
		}
	case kEMD:
		var resp serve.EMDResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		t := f.trees[r.tree]
		mu, err := serve.ParseMeasure(r.q.Mu, t.NumPoints())
		if err != nil {
			return err
		}
		nu, err := serve.ParseMeasure(r.q.Nu, t.NumPoints())
		if err != nil {
			return err
		}
		if want := t.EMD(mu, nu); resp.EMD != want {
			return fmt.Errorf("emd = %v, want %v", resp.EMD, want)
		}
	case kMedoid:
		var resp serve.MedoidResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		want := f.medoids[r.tree]
		if float64(resp.Point) != want[0] || resp.TotalDist != want[1] {
			return fmt.Errorf("medoid = (%d, %v), want (%v, %v)", resp.Point, resp.TotalDist, want[0], want[1])
		}
	case kReload:
		var resp serve.ReloadResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Tree.Name != f.names[r.tree] {
			return fmt.Errorf("reload answered for %q, want %q", resp.Tree.Name, f.names[r.tree])
		}
	default:
		return errors.New("unknown request kind")
	}
	return nil
}

// warm sends each client's warm-up head of the stream, in parallel;
// any failure fails the set-up.
func (f *fleet) warm() error {
	errs := make([]error, len(f.streams))
	var wg sync.WaitGroup
	for c := range f.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range f.streams[c][:f.shape.warmup] {
				if rec := f.do(r); rec.err != nil {
					errs[c] = fmt.Errorf("warm-up: %w", rec.err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serveSample is what measured client traffic saw, over one or more
// fleets.
type serveSample struct {
	ops        [][]opRecord // per client
	wall       time.Duration
	rt         rtSnap             // change of the runtime counters
	gate       map[string]float64 // change of the gate counters
	ok, failed int
	firstErr   string
}

// drive runs the closed loop from the head of the measured streams:
// every client sends its next request only after verifying the previous
// answer, until d has passed.
func (f *fleet) drive(d time.Duration) *serveSample {
	s := &serveSample{ops: make([][]opRecord, len(f.streams))}
	gate0 := gateCounters(f.reg)
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range f.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := f.streams[c]
			recs := make([]opRecord, 0, 1<<15)
			for i := f.shape.warmup; time.Now().Before(deadline); i++ {
				if i == len(stream) {
					i = f.shape.warmup
				}
				recs = append(recs, f.do(stream[i]))
			}
			s.ops[c] = recs
		}(c)
	}
	wg.Wait()
	s.wall = time.Since(start)
	s.rt = readRuntime().minus(rt0)
	s.gate = gateCounters(f.reg)
	for name, v := range gate0 {
		s.gate[name] -= v
	}
	for _, recs := range s.ops {
		for _, r := range recs {
			if r.err != nil {
				s.failed++
				if s.firstErr == "" {
					s.firstErr = r.err.Error()
				}
				continue
			}
			s.ok++
		}
	}
	return s
}

// add pools o into s.
func (s *serveSample) add(o *serveSample) {
	if s.ops == nil {
		s.ops = make([][]opRecord, len(o.ops))
		s.gate = map[string]float64{}
	}
	for c := range o.ops {
		s.ops[c] = append(s.ops[c], o.ops[c]...)
	}
	s.wall += o.wall
	s.rt = s.rt.plus(o.rt)
	for name, v := range o.gate {
		s.gate[name] += v
	}
	s.ok += o.ok
	s.failed += o.failed
	if s.firstErr == "" {
		s.firstErr = o.firstErr
	}
}

func (s *serveSample) attempted() int { return s.ok + s.failed }

// latencies returns every op's latency, or only those pick accepts.
func (s *serveSample) latencies(pick func(opRecord) bool) []time.Duration {
	var out []time.Duration
	for _, recs := range s.ops {
		for _, r := range recs {
			if pick == nil || pick(r) {
				out = append(out, r.lat)
			}
		}
	}
	return out
}

// gateCounters sums the gate_* counters the gate layer metrics use,
// across backend labels.
func gateCounters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, v := range reg.Snapshot() {
		switch v.Name {
		case "gate_cache_hits_total", "gate_cache_misses_total", "gate_cache_evictions_total",
			"gate_backend_requests_total", "gate_retries_total", "gate_backend_errors_total":
			out[v.Name] += v.Value
		}
	}
	return out
}

func runServe(c runConfig, sh serveShape) (*outcome, error) {
	var f *fleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	// A traced run gives its first half of the rounds to untraced fleets
	// and its second half to traced ones, each replaying the same
	// requests, so the halves differ only in tracing.
	seg := time.Duration(c.seconds * float64(time.Second) / float64(sh.rounds))
	var setups []float64
	var plain, traced serveSample
	var procs []obs.TraceProcess
	for i := 0; i < sh.rounds; i++ {
		tracing := c.trace && i >= sh.rounds/2
		if f != nil {
			f.close()
			f = nil
		}
		t0 := time.Now()
		nf, err := startFleet(c, sh, tracing)
		if err != nil {
			return nil, err
		}
		f = nf
		if err := f.warm(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		s := f.drive(seg)
		if !tracing {
			plain.add(s)
			continue
		}
		traced.add(s)
		if c.traceDir != "" {
			for _, p := range f.gw.TraceProcesses(f.tracer.Buffer()) {
				p.Name = fmt.Sprintf("round %d %s", i, p.Name)
				procs = append(procs, p)
			}
		}
	}

	o := &outcome{values: map[string]float64{}}
	o.attempted = plain.attempted() + traced.attempted()
	o.failed = plain.failed + traced.failed
	o.firstErr = plain.firstErr
	if o.firstErr == "" {
		o.firstErr = traced.firstErr
	}
	v := o.values
	if !c.trace {
		opMetrics(v, setups, plain.latencies(nil), plain.ok, plain.wall)
		v["alloc_mb_per_op"] = float64(plain.rt.allocBytes) / 1e6 / float64(plain.attempted())
		buildCosts(v, f.infos)
		var dist []float64
		for _, t := range f.trees {
			rep, err := quality.Audit(t, f.pts, quality.Config{MaxPairs: auditPairs, Seed: c.seed})
			if err != nil {
				return nil, err
			}
			dist = append(dist, rep.MeanRatio)
		}
		v["distortion_mean"] = mean(dist)
		return o, nil
	}

	zeroLayers(v)
	goLayer(v, plain.rt, plain.attempted())
	gateLayer(v, &plain)
	if err := f.kernelLayers(v); err != nil {
		return nil, err
	}
	v["trace.overhead_pct"] = overheadPct(plain.latencies(nil), traced.latencies(nil))
	if c.traceDir != "" {
		if err := writeSpans(c, procs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// gateLayer fills the gate.* metrics from the untraced segment.
func gateLayer(v map[string]float64, s *serveSample) {
	us := func(ds []time.Duration) float64 { return medianOrZero(durationsMs(ds)) * 1000 }
	cacheable := func(r opRecord) bool { return r.err == nil && (r.kind == kDist || r.kind == kKNN) }
	v["gate.hit_p50_us"] = us(s.latencies(func(r opRecord) bool { return cacheable(r) && r.hit }))
	v["gate.miss_p50_us"] = us(s.latencies(func(r opRecord) bool { return cacheable(r) && !r.hit }))
	d := func(name string) float64 { return s.gate[name] }
	hits, misses := d("gate_cache_hits_total"), d("gate_cache_misses_total")
	if hits+misses > 0 {
		v["gate.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["gate.cache_evictions"] = d("gate_cache_evictions_total")
	v["gate.backend_requests_per_op"] = d("gate_backend_requests_total") / float64(max(s.attempted(), 1))
	v["gate.retries"] = d("gate_retries_total")
	v["gate.backend_errors"] = d("gate_backend_errors_total")
}
