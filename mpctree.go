// Package mpctree is a Go implementation of "Massively Parallel Tree
// Embeddings for High Dimensional Spaces" (Ahanchi, Andoni, Hajiaghayi,
// Knittel, Zhong — SPAA 2023).
//
// It embeds n points of R^d into a weighted tree whose path metric
// dominates the Euclidean metric and approximates it within
// O(√(log n)·logΔ·√(log log n)) in expectation, using the paper's hybrid
// partitioning — a family that interpolates between Arora's random
// shifted grids (r = d) and Charikar et al.'s ball partitioning (r = 1).
// Both the sequential algorithm (Algorithm 1 / Theorem 2) and the fully
// scalable MPC algorithm (Algorithm 2 / Theorem 1, including the MPC Fast
// Johnson–Lindenstrauss transform of Theorem 3) are provided; the MPC
// versions run on an in-process simulator that enforces and meters the
// model's round and memory constraints.
//
// Quick start:
//
//	tree, info, err := mpctree.Embed(points, mpctree.Options{Seed: 1})
//	...
//	d := tree.Dist(i, j) // tree metric between points i and j
//
// For the distributed pipeline (dimension reduction + tree embedding on a
// simulated cluster):
//
//	tree, info, err := mpctree.EmbedMPC(points, mpctree.MPCOptions{
//		Machines: 16, Seed: 1,
//	})
//
// Downstream applications from Corollary 1 — approximate minimum spanning
// tree, Earth-Mover distance, and densest ball — are in apps.go.
package mpctree

import (
	"mpctree/internal/core"
	"mpctree/internal/fjlt"
	"mpctree/internal/hst"
	"mpctree/internal/mpc"
	"mpctree/internal/mpcapps"
	"mpctree/internal/mpcembed"
	"mpctree/internal/obs"
	"mpctree/internal/quality"
	"mpctree/internal/resilient"
	"mpctree/internal/vec"
)

// Point is a d-dimensional vector.
type Point = vec.Point

// Tree is a weighted rooted tree over the embedded points. Distances are
// queried with Dist(i, j); see the hst package for the full toolkit (LCA,
// subtree statistics, tree-MST, tree-EMD).
type Tree = hst.Tree

// Method selects the per-level partitioning scheme.
type Method = core.Method

// Partitioning methods.
const (
	// Hybrid is the paper's contribution: r-bucket hybrid partitioning
	// (Definition 3), distortion O(√(d·r)·logΔ).
	Hybrid = core.MethodHybrid
	// Grid is Arora's random shifted grid baseline (Definition 1),
	// distortion O(d·logΔ)-type (the O(log²n) regime of the paper).
	Grid = core.MethodGrid
	// Ball is Charikar et al.'s ball partitioning (Definition 2) —
	// hybrid with r = 1; best distortion, largest space.
	Ball = core.MethodBall
)

// Options configures the sequential embedding; see core.Options for field
// semantics. The zero value embeds with hybrid partitioning and
// r = Θ(log log n).
type Options = core.Options

// Info reports what an embedding run did.
type Info = core.Info

// Embed builds a tree embedding of pts sequentially (Algorithm 1 /
// Theorem 2). Points must be pairwise distinct; the tree's leaf i is
// pts[i]. The returned tree deterministically dominates the Euclidean
// metric: Dist(i, j) ≥ ‖pts[i]−pts[j]‖₂ always.
func Embed(pts []Point, opt Options) (*Tree, *Info, error) {
	return core.Embed(pts, opt)
}

// MPCOptions configures the distributed pipeline.
type MPCOptions struct {
	// Machines is the simulated cluster size; 0 means 8.
	Machines int
	// CapWords is the per-machine memory in 64-bit words; 0 means
	// mpc.FullyScalableCap(n, d, Eps, 256).
	CapWords int
	// Eps is the fully scalable exponent when CapWords is derived; 0
	// means 0.7.
	Eps float64
	// Pipeline tunes both stages (FJLT + hybrid embedding).
	Pipeline core.PipelineOptions
	// Seed drives all randomness (overrides Pipeline.Seed when nonzero).
	Seed uint64
	// Faults, if set, installs a fault-injection schedule on the simulated
	// cluster before the pipeline runs (see mpc.FaultPlan). Pair it with
	// Pipeline.Resilient to exercise recovery; without it, the first
	// injected fault fails the run with an mpc.ErrInjected-class error.
	Faults *mpc.FaultPlan
	// Transport, if non-nil, backs the cluster's record plane with this
	// transport (e.g. an mpcnet TCP transport over real worker processes)
	// instead of the in-process simulator. Machines must equal the
	// transport's machine count, and capacity derivation is unchanged.
	// The output tree is bit-identical across backends — all computation
	// and randomness stay coordinator-side; pair remote transports with
	// Pipeline.Resilient so worker failures recover by checkpointed
	// replay instead of failing the run.
	Transport mpc.Transport
	// Obs, if non-nil, instruments the simulated cluster against this
	// metrics registry (mpc_rounds_total, mpc_comm_words_total, peak
	// residency, checkpoint/restore/fault series — see
	// mpc.Cluster.Instrument) before the pipeline runs. Observational
	// only: the output tree is bit-identical with or without it.
	Obs *MetricsRegistry
	// Span, if non-nil, becomes the parent of per-stage attempt spans
	// (jl_projection, tree_embed → grid_construction / root_paths /
	// tree_build); after the run it also carries the cluster totals as
	// rounds / comm_words / peak_local_words metrics. Overrides
	// Pipeline.Span when non-nil.
	Span *Span
	// Trace enables per-round tracing on the cluster; the rows land in
	// MPCInfo.RoundTrace (render with FormatRoundTrace).
	Trace bool
	// Quality, if non-nil, audits the final tree against the original
	// points on a seeded pair sample and publishes quality_* series (mean
	// and extreme distortion ratios, domination violations, per-scale
	// separation counts) onto the collector's registry. Observational
	// only: the output tree is bit-identical with or without it. Overrides
	// Pipeline.Quality when non-nil.
	Quality *QualityCollector
}

// MPCInfo reports the distributed run's accounting, including the
// cluster-level metrics Theorem 1 and Theorem 3 bound.
type MPCInfo struct {
	*core.PipelineInfo
	Machines int
	CapWords int
	Metrics  mpc.Metrics
	// RoundTrace holds the per-round communication/residency rows when
	// MPCOptions.Trace was set (nil otherwise).
	RoundTrace []RoundStat
}

// newMPCCluster builds the cluster an MPC entry point runs on: resolves
// the machine count (Transport's count when one is supplied and Machines
// is unset; 8 otherwise) and the memory cap (FullyScalableCap when
// unset), routes the record plane through opt.Transport when given, and
// applies the fault/obs/trace options.
func newMPCCluster(pts []Point, opt MPCOptions) (cluster *mpc.Cluster, machines, capWords int) {
	machines = opt.Machines
	if machines == 0 {
		if opt.Transport != nil {
			machines = opt.Transport.Machines()
		} else {
			machines = 8
		}
	}
	capWords = opt.CapWords
	if capWords == 0 {
		n := len(pts)
		d := 1
		if n > 0 {
			d = len(pts[0])
		}
		eps := opt.Eps
		if eps == 0 {
			eps = 0.7
		}
		capWords = mpc.FullyScalableCap(n, d, eps, 256)
	}
	cfg := mpc.Config{Machines: machines, CapWords: capWords}
	if opt.Transport != nil {
		cluster = mpc.NewWithTransport(cfg, opt.Transport)
	} else {
		cluster = mpc.New(cfg)
	}
	if opt.Faults != nil {
		cluster.InjectFaults(opt.Faults)
	}
	if opt.Obs != nil {
		cluster.Instrument(opt.Obs)
	}
	if opt.Trace {
		cluster.EnableTrace()
	}
	return cluster, machines, capWords
}

// EmbedMPC runs the full Theorem-1 pipeline — MPC Fast Johnson–
// Lindenstrauss dimension reduction followed by MPC hybrid partitioning —
// on a freshly simulated cluster and returns the tree plus accounting.
func EmbedMPC(pts []Point, opt MPCOptions) (*Tree, *MPCInfo, error) {
	cluster, machines, capWords := newMPCCluster(pts, opt)
	popt := opt.Pipeline
	if opt.Seed != 0 {
		popt.Seed = opt.Seed
	}
	if opt.Span != nil {
		popt.Span = opt.Span
	}
	if opt.Quality != nil {
		popt.Quality = opt.Quality
	}
	tree, pinfo, err := core.EmbedPipeline(cluster, pts, popt)
	m := cluster.Metrics()
	info := &MPCInfo{PipelineInfo: pinfo, Machines: machines, CapWords: capWords, Metrics: m}
	if opt.Trace {
		info.RoundTrace = cluster.Trace()
	}
	opt.Span.Add("rounds", int64(m.Rounds))
	opt.Span.Add("comm_words", int64(m.CommWords))
	opt.Span.Add("peak_local_words", int64(m.MaxLocalWords))
	opt.Span.Add("total_space_words", int64(m.TotalSpace))
	if err != nil {
		return nil, info, err
	}
	return tree, info, nil
}

// Embedder is a persistent embedding index: beyond the tree it retains
// the level grids, so out-of-sample queries can be located in the
// hierarchy (approximate nearest-neighbor search — the compact-
// representation use the paper motivates).
type Embedder = core.Embedder

// NewEmbedder builds an embedding index over pts. Options semantics match
// Embed, and the tree NewEmbedder produces is identical to Embed's for the
// same options and seed, because both come from one build.
func NewEmbedder(pts []Point, opt Options) (*Embedder, error) {
	return core.NewEmbedder(pts, opt)
}

// DistributedEmbedding is an Algorithm-2 embedding that stays resident on
// the simulated cluster: per-point path records enable O(1)-round EMD and
// densest-ball queries (Corollary 1 in its genuinely distributed form).
type DistributedEmbedding = mpcapps.Embedding

// NewDistributedEmbedding runs Algorithm 2 on a fresh cluster, keeping
// the path records resident for subsequent constant-round queries via the
// returned embedding's EMD and DensestBall methods.
func NewDistributedEmbedding(pts []Point, opt MPCOptions) (*DistributedEmbedding, error) {
	cluster, _, _ := newMPCCluster(pts, opt)
	eo := opt.Pipeline.Embed
	if opt.Seed != 0 {
		eo.Seed = opt.Seed
	}
	if opt.Span != nil {
		eo.Span = opt.Span
	}
	return mpcapps.Embed(cluster, pts, eo)
}

// MPCEmbedOptions tunes the Algorithm-2 stage directly.
type MPCEmbedOptions = mpcembed.Options

// FJLTOptions configures a standalone Fast Johnson–Lindenstrauss
// transform.
type FJLTOptions = fjlt.Options

// PipelineOptions configures the two-stage Theorem-1 pipeline run by
// EmbedMPC.
type PipelineOptions = core.PipelineOptions

// FaultPlan is a seeded, deterministic fault-injection schedule for the
// simulated cluster: machine crashes, transient round failures, message
// drops/duplication, and artificial memory pressure. Install one via
// MPCOptions.Faults.
type FaultPlan = mpc.FaultPlan

// FaultStats counts what a FaultPlan injected during a run.
type FaultStats = mpc.FaultStats

// RecoveryStats meters checkpoint/restore overhead and rolled-back work.
type RecoveryStats = mpc.RecoveryStats

// RoundStat is one round's communication/residency row from the per-round
// trace (MPCOptions.Trace).
type RoundStat = mpc.RoundStat

// FormatRoundTrace renders a round trace as an aligned text table.
func FormatRoundTrace(stats []RoundStat) string {
	return mpc.FormatTrace(stats)
}

// MetricsRegistry is a concurrency-safe metrics registry (counters,
// gauges, histograms) exportable in Prometheus text format, JSON, and
// expvar; see internal/obs. Pass one via MPCOptions.Obs to meter a run.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// Span is a hierarchical phase-attribution span (wall time, allocations,
// rounds, comm words per pipeline phase); see internal/obs. Pass one via
// MPCOptions.Span and render it with its Render or MarshalJSON methods.
type Span = obs.Span

// NewSpan starts a root span with the given name.
func NewSpan(name string) *Span { return obs.NewSpan(name) }

// QualityConfig tunes the embedding-quality auditor: pair-sample size and
// seed, worker fan-out, the Theorem-2 mean-distortion alarm threshold,
// and the domination tolerance; see internal/quality.
type QualityConfig = quality.Config

// QualityReport is one audit's result: distortion-ratio summary over the
// sampled pairs, domination/bound violation counts, and per-scale
// separation statistics (the Lemma-1 observables).
type QualityReport = quality.Report

// QualityCollector publishes audit reports as quality_* series on a
// metrics registry. Pass one via MPCOptions.Quality to audit a pipeline
// run, or use quality.Audit directly for a one-off report.
type QualityCollector = quality.Collector

// NewQualityCollector registers the quality_* series on reg (optional
// alternating label key/value pairs) and returns the collector.
func NewQualityCollector(reg *MetricsRegistry, cfg QualityConfig, labelPairs ...string) *QualityCollector {
	return quality.NewCollector(reg, cfg, labelPairs...)
}

// RetryOptions tunes the resilient execution driver enabled by
// PipelineOptions.Resilient (retry budget, virtual backoff, resource
// escalation).
type RetryOptions = resilient.Options

// UniformFaults builds a FaultPlan injecting every fault class at
// per-round probability p.
func UniformFaults(seed uint64, p float64) *FaultPlan {
	return mpc.UniformFaults(seed, p)
}

// PipelineTuning is a convenience constructor for MPCOptions.Pipeline:
// xi is the FJLT distortion parameter ξ ∈ (0, 0.5) and ck the constant in
// k = ck·ξ⁻²·ln n (use ck ≈ 1 for small-n experiments; the conservative
// default is 4).
func PipelineTuning(xi, ck float64) PipelineOptions {
	return PipelineOptions{Xi: xi, FJLT: fjlt.Options{CK: ck}}
}

// FJLT applies the Fast Johnson–Lindenstrauss Transform (Theorem 3,
// sequential form) to the point set, reducing to k = Θ(ξ⁻²·log n)
// dimensions while preserving pairwise distances within (1±ξ) with high
// probability.
func FJLT(pts []Point, opt FJLTOptions) ([]Point, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	tr, err := fjlt.New(len(pts), len(pts[0]), opt)
	if err != nil {
		return nil, err
	}
	return tr.ApplyAll(pts), nil
}
