package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"time"

	"mpctree"
	"mpctree/internal/fjlt"
	"mpctree/internal/hadamard"
	"mpctree/internal/mpc"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

// buildShape sizes a build workload.
type buildShape struct {
	n, d, delta int
	capWords    int // per-machine memory; 0 = the fully scalable default
	cycle       int // embedding seeds the ops rotate through
	setups      int // set-ups per run; setup_s is their median
	minOps      int // ops measured even when the clock has run out
}

// highdimShape sets the memory cap the CLIs use: the fully scalable
// default refuses n=256, d=1024 ("required grids exceed local memory").
func highdimShape(tiny bool) buildShape {
	if tiny {
		return buildShape{n: 32, d: 256, delta: 1024, capWords: 1 << 22, cycle: 1, setups: 1, minOps: 2}
	}
	return buildShape{n: 256, d: 1024, delta: 1024, capWords: 1 << 22, cycle: 1, setups: 3, minOps: 8}
}

func manypointsShape(tiny bool) buildShape {
	if tiny {
		return buildShape{n: 256, d: 8, delta: 1024, cycle: 2, setups: 1, minOps: 2}
	}
	return buildShape{n: 4096, d: 8, delta: 1024, cycle: 4, setups: 3, minOps: 8}
}

// auditPairs sizes the seeded pair sample of the per-op domination
// check and of distortion_mean.
const auditPairs = 2048

// embedOptions is the EmbedMPC configuration every build uses: the
// simulated 8-machine cluster with the given memory cap.
func embedOptions(seed uint64, capWords int, span *obs.Span) mpctree.MPCOptions {
	return mpctree.MPCOptions{Machines: 8, CapWords: capWords, Seed: seed, Span: span}
}

// embedSeed derives the i-th embedding seed of a run; never 0, which
// EmbedMPC would read as "unset".
func embedSeed(runSeed uint64, i int) uint64 {
	return runSeed*1_000_003 + uint64(i) + 1
}

// buildState is a set-up build workload: the points and, per seed of
// the cycle, the tree bytes and audit of the warm-up op.
type buildState struct {
	shape   buildShape
	pts     []vec.Point
	seeds   []uint64
	golden  [][]byte
	info    []*mpctree.MPCInfo
	audit   quality.Config
	scratch bytes.Buffer
}

func setupBuild(shape buildShape, seed uint64) (*buildState, error) {
	st := &buildState{
		shape: shape,
		pts:   workload.UniformLattice(seed, shape.n, shape.d, shape.delta),
		audit: quality.Config{MaxPairs: auditPairs, Seed: seed},
	}
	for i := 0; i < shape.cycle; i++ {
		s := embedSeed(seed, i)
		tree, info, err := mpctree.EmbedMPC(st.pts, embedOptions(s, shape.capWords, nil))
		if err != nil {
			return nil, fmt.Errorf("warm-up embed (seed %d): %w", s, err)
		}
		if _, err := st.check(tree, nil); err != nil {
			return nil, fmt.Errorf("warm-up embed (seed %d): %w", s, err)
		}
		st.seeds = append(st.seeds, s)
		st.golden = append(st.golden, append([]byte(nil), st.scratch.Bytes()...))
		st.info = append(st.info, info)
	}
	return st, nil
}

// check verifies one built tree: structure, domination on the seeded
// pair sample, and — when golden is given — byte identity with the
// warm-up tree of the same seed. It leaves the tree's bytes in
// st.scratch and returns the audit.
func (st *buildState) check(tree *mpctree.Tree, golden []byte) (*quality.Report, error) {
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	rep, err := quality.Audit(tree, st.pts, st.audit)
	if err != nil {
		return nil, err
	}
	if rep.DominationViolations > 0 {
		return nil, fmt.Errorf("%d of %d sampled pairs violate domination", rep.DominationViolations, rep.SampledPairs)
	}
	st.scratch.Reset()
	if _, err := tree.WriteTo(&st.scratch); err != nil {
		return nil, err
	}
	if golden != nil && !bytes.Equal(st.scratch.Bytes(), golden) {
		return nil, fmt.Errorf("tree bytes differ from the warm-up build of the same seed")
	}
	return rep, nil
}

// buildSample is what one measured segment of build ops saw.
type buildSample struct {
	lat        []time.Duration
	allocBytes uint64
	ok, failed int
	firstErr   string
	wall       time.Duration
	rt0, rt1   rtSnap
	spans      []*obs.SpanSnapshot // traced segment only
	distortion []float64           // audit mean ratio per ok op
}

// measure runs build ops for d (at least minOps of them). With traced
// set, every op carries a root span through MPCOptions.Span and the
// finished span trees are kept.
func (st *buildState) measure(d time.Duration, traced bool) *buildSample {
	s := &buildSample{}
	s.rt0 = readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < st.shape.minOps || time.Now().Before(deadline); i++ {
		k := i % len(st.seeds)
		var span *obs.Span
		if traced {
			span = obs.NewSpan("embed_mpc")
		}
		a0 := heapAllocs()
		t0 := time.Now()
		tree, _, err := mpctree.EmbedMPC(st.pts, embedOptions(st.seeds[k], st.shape.capWords, span))
		dt := time.Since(t0)
		s.allocBytes += heapAllocs() - a0
		span.End()
		s.lat = append(s.lat, dt)
		var rep *quality.Report
		if err == nil {
			rep, err = st.check(tree, st.golden[k])
		}
		if err != nil {
			s.failed++
			if s.firstErr == "" {
				s.firstErr = fmt.Sprintf("op %d (seed %d): %v", i, st.seeds[k], err)
			}
			continue
		}
		s.ok++
		s.distortion = append(s.distortion, rep.MeanRatio)
		if traced {
			s.spans = append(s.spans, span.Snapshot())
		}
	}
	s.wall = time.Since(start)
	s.rt1 = readRuntime()
	return s
}

func runBuild(c runConfig, shape buildShape) (*outcome, error) {
	var st *buildState
	var setups []float64
	for i := 0; i < shape.setups; i++ {
		t0 := time.Now()
		s, err := setupBuild(shape, c.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}

	o := &outcome{values: map[string]float64{}}
	plain := st.measure(c.measure(), false)
	o.attempted, o.failed, o.firstErr = plain.ok+plain.failed, plain.failed, plain.firstErr
	if !c.trace {
		v := o.values
		opMetrics(v, setups, plain.lat, plain.ok, plain.wall)
		v["alloc_mb_per_op"] = float64(plain.allocBytes) / 1e6 / float64(len(plain.lat))
		buildCosts(v, st.info)
		v["distortion_mean"] = mean(plain.distortion)
		return o, nil
	}

	traced := st.measure(c.measure(), true)
	o.attempted += traced.ok + traced.failed
	o.failed += traced.failed
	if o.firstErr == "" {
		o.firstErr = traced.firstErr
	}
	zeroLayers(o.values)
	goLayer(o.values, plain.rt1.minus(plain.rt0), len(plain.lat))
	pipelineLayers(o.values, traced.spans)
	if st.info[0].UsedFJLT {
		fwht, err := timeDistFWHT(st.pts, st.info[0].FJLTParams)
		if err != nil {
			return nil, err
		}
		o.values["hadamard.dist_fwht_ms"] = fwht
		p := st.info[0].FJLTParams
		o.values["hadamard.butterfly_ops"] = float64(len(st.pts)) * float64(p.DPad) * float64(bits.TrailingZeros(uint(p.DPad)))
	}
	o.values["trace.overhead_pct"] = overheadPct(plain.lat, traced.lat)
	if c.traceDir != "" {
		if err := writeSpans(c, []obs.TraceProcess{{Name: "perfbench " + c.workload, Roots: traced.spans}}); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// buildCosts fills the MPC cost metrics, averaged over the given builds.
func buildCosts(v map[string]float64, infos []*mpctree.MPCInfo) {
	var rounds, peak, comm float64
	for _, in := range infos {
		rounds += float64(in.Metrics.Rounds)
		peak += float64(in.Metrics.MaxLocalWords)
		comm += float64(in.Metrics.CommWords)
	}
	k := float64(len(infos))
	v["mpc_rounds"], v["peak_local_words"], v["comm_words"] = rounds/k, peak/k, comm/k
}

// pipelineLayers reads the core, fjlt and mpcembed metrics off the
// traced ops' span trees: the median over ops of each phase's wall time,
// allocation and comm words.
func pipelineLayers(v map[string]float64, roots []*obs.SpanSnapshot) {
	// at is the median over ops of get on the span at path; an op
	// without that span counts 0.
	at := func(get func(*obs.SpanSnapshot) float64, path ...string) float64 {
		xs := make([]float64, 0, len(roots))
		for _, r := range roots {
			x := 0.0
			if sp := findSpan(r, path...); sp != nil {
				x = get(sp)
			}
			xs = append(xs, x)
		}
		return medianOrZero(xs)
	}
	wallMs := func(sp *obs.SpanSnapshot) float64 { return float64(sp.WallNs) / 1e6 }
	allocMB := func(sp *obs.SpanSnapshot) float64 { return float64(sp.AllocBytes) / 1e6 }
	count := func(key string) func(*obs.SpanSnapshot) float64 {
		return func(sp *obs.SpanSnapshot) float64 { return float64(sp.Metrics[key]) }
	}
	v["core.jl_projection_ms"] = at(wallMs, "jl_projection")
	v["core.tree_embed_ms"] = at(wallMs, "tree_embed")
	v["fjlt.alloc_mb"] = at(allocMB, "jl_projection")
	v["fjlt.rounds"] = at(count("rounds"), "jl_projection")
	v["fjlt.comm_words"] = at(count("comm_words"), "jl_projection")
	for _, p := range mpcPhases {
		v["mpcembed."+p+"_ms"] = at(wallMs, "tree_embed", p)
		v["mpcembed."+p+"_alloc_mb"] = at(allocMB, "tree_embed", p)
		v["mpcembed."+p+"_comm_words"] = at(count("comm_words"), "tree_embed", p)
	}
	v["mpcembed.grids"] = at(count("grids"), "tree_embed", "grid_construction")
	v["mpcembed.grid_words"] = at(count("grid_words"), "tree_embed", "grid_construction")
}

// findSpan follows a path of child names from root; nil if absent.
func findSpan(root *obs.SpanSnapshot, path ...string) *obs.SpanSnapshot {
	cur := root
	for _, name := range path {
		var next *obs.SpanSnapshot
		for _, c := range cur.Children {
			if c.Name == name {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// timeDistFWHT times hadamard.DistributeVectors + DistFWHT standalone on
// the workload's own n×dPad batch, on a fresh 8-machine cluster with the
// pipeline's block size; the median of a few repetitions, in ms.
func timeDistFWHT(pts []vec.Point, p fjlt.Params) (float64, error) {
	vecs := make([][]float64, len(pts))
	for i, x := range pts {
		vecs[i] = x
	}
	blockC := fjlt.DefaultBlockC(p.DPad)
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		c := mpc.New(mpc.Config{Machines: 8, CapWords: 1 << 22})
		t0 := time.Now()
		if err := hadamard.DistributeVectors(c, vecs, p.DPad, blockC); err != nil {
			return 0, err
		}
		if err := hadamard.DistFWHT(c, p.DPad, blockC, 0); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// overheadPct is traced op_p50 over untraced op_p50, minus 1, in %. It
// prints both medians, which the per-layer times are read against.
func overheadPct(plain, traced []time.Duration) float64 {
	p, t := median(durationsMs(plain)), median(durationsMs(traced))
	if p == 0 || len(traced) == 0 {
		return 0
	}
	fmt.Printf("# op_p50_ms untraced %.6g, traced %.6g\n", p, t)
	return (t/p - 1) * 100
}

// zeroLayers reports 0 for every per-layer metric up front: a layer the
// workload's ops never reach keeps it.
func zeroLayers(v map[string]float64) {
	for _, d := range perLayer {
		v[d.name] = 0
	}
}
