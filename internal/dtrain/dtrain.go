// Package dtrain is the trainer: the one place that knows how a
// bulk-synchronous DDP epoch of the Interaction GNN is planned, sampled,
// executed and charged. It composes the paper's two contributions,
// ShaDow minibatches sampled in bulk as sparse-matrix operations
// (internal/sampling) and gradient synchronization through coalesced
// collectives (internal/comm, internal/ddp), and runs the two baselines
// the paper measures them against as values of Config.Sampler rather
// than as second training loops: SamplerStandard (the PyG baseline, one
// sequential sampler invocation per step) and SamplerFullGraph (the
// original Exa.TrkX pass, one step per event graph, skipping graphs
// that do not fit Config.Device). SamplerFullGraph is also how
// recon.Reconstructor.Fit trains its GNN stage, at one rank.
//
// Each rank is a goroutine owning a model replica, a pinned
// workspace.Arena, and a contiguous range of the step's gradient
// micro-blocks. Every step each rank samples the subgraphs of its
// blocks (the bulk sampler stacks up to k batches into one
// matrix-sampler invocation), runs forward/backward per block, and
// synchronizes gradients under one of two strategies: one collective
// per parameter matrix (the baseline) or one coalesced collective (the
// paper's optimization). Every rank issues a step's collectives in the
// same program order (the cancellation flag, each gradient bucket, the
// per-block losses) on one ring, after its backward passes are done.
//
// # Determinism
//
// The trainer is bitwise deterministic not just run-to-run but across
// rank counts and sync strategies: TrainEpoch at P ranks produces the
// exact float64 loss trajectory of the P=1 run. Three mechanisms make
// that hold:
//
//  1. Per-root sampling streams. Every batch vertex draws from its own
//     seeded generator (sampling.BulkMatrixShaDowStreams), so its ShaDow
//     subgraph does not depend on how batches are stacked into bulk
//     calls or sharded across ranks.
//  2. Canonical gradient micro-blocks. Each global batch is split into a
//     fixed number of micro-blocks (Config.GradBlocks, independent of
//     P). A rank backward-passes each of its blocks separately, so the
//     per-block gradients are P-independent.
//  3. Fixed-tree reduction. Block gradients cross ranks as distinct
//     summands (an all-reduce whose payload rows are per-block partials;
//     summation against zero rows is exact in IEEE arithmetic) and every
//     rank then combines all blocks with the same balanced pairwise tree
//     over block index. Floating-point addition is not associative, so a
//     plain ring reduction would order sums by rank layout; the fixed
//     tree makes the order a function of the block structure only.
//
// The sync strategy therefore changes which collectives are issued and
// charged — never the numbers. Neither does the sampler: with the same
// per-root streams SamplerStandard draws exactly the components the
// bulk sampler draws, so the PyG baseline trains on identical subgraphs
// and differs from Ours in cost only. The bulk batch count k (fixed by
// Config.BulkBatches, or derived from device memory when that is 0)
// only decides how batches are stacked into sampler calls.
//
// # Timing
//
// EpochStats reports what the trainer measures, plus the one modelled
// cost it owns.
//
// Measured: each rank times its compute sections (a sampler call; one
// block's gather, forward, backward and flatten; the tree combine and
// optimizer step) and, separately, the time it spends in its
// collectives, packing payloads and blocked on the ring
// (EpochStats.CommWait). Sampling, Training and CommWait
// are each the maximum across ranks, the bulk-synchronous cost of a
// data-parallel step. EpochStats.SamplerCalls counts a rank's sampler
// invocations.
//
// Modelled: Comm.Modeled is the α–β ring time on NVLink 3.0 of the
// logical collectives a production NCCL deployment would run for the
// same payload (k·2(P−1)·α latency for per-matrix, one 2(P−1)·α for
// coalesced), because channel hops on a host do not resemble a GPU
// interconnect. A device clock for the other phases (a sampler launch
// charge, an accelerator's compute throughput) is the caller's to
// apply: Figure 3 applies one in internal/experiments, and PERF.md
// ("Figure 3 timing model") records its calibration.
//
// The gate: compute sections run under a semaphore of
// GOMAXPROCS / (kernel workers per rank) slots, so a rank is timed
// while it has its share of the host to itself even when P exceeds the
// cores (Figure 3 sweeps P up to 16). The gate is never held across a
// collective, and never blocks when the ranks fit the host.
package dtrain

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/gpumem"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Sampler selects how a step's training subgraphs are produced.
type Sampler int

const (
	// SamplerMatrixBulk is the paper's matrix-based bulk ShaDow sampler:
	// k consecutive batches per sampler invocation.
	SamplerMatrixBulk Sampler = iota
	// SamplerStandard is Algorithm 2 run once per step (the PyG
	// baseline). It draws from the same per-root streams as the bulk
	// sampler, so it changes cost, never numbers.
	SamplerStandard
	// SamplerFullGraph is the original Exa.TrkX pass: no sampling, one
	// optimizer step per event graph, graphs that exceed Config.Device
	// skipped.
	SamplerFullGraph
)

// interconnect prices the charged collectives.
var interconnect = comm.NVLink3()

// Config collects the trainer's hyperparameters.
type Config struct {
	GNN       ignn.Config
	Epochs    int
	BatchSize int // global batch: ShaDow roots per optimizer step
	Shadow    sampling.Config
	LR        float64
	PosWeight float64

	// Ranks is the number of simulated devices P.
	Ranks int
	// Strategy selects the gradient synchronization pattern:
	// ddp.PerMatrix or ddp.Coalesced.
	Strategy ddp.SyncStrategy
	// Sampler selects bulk (the zero value), per-step or no sampling.
	Sampler Sampler
	// BulkBatches is k, the number of consecutive batches stacked into
	// one bulk sampler invocation per rank (the paper's utilization
	// optimization). 0 derives k per event graph from the aggregate
	// memory of Ranks devices and a sampled batch's activation
	// footprint. Changing k never changes the numbers — only how much
	// sampler work is amortized per call.
	BulkBatches int
	// Device is the modelled accelerator: it bounds the graphs
	// SamplerFullGraph trains on and sizes the derived k.
	Device gpumem.Device
	// GradBlocks is the number of canonical gradient micro-blocks per
	// step. It bounds usable ranks' parallelism (ranks beyond GradBlocks
	// idle through compute) and must stay fixed across runs that are
	// expected to match bitwise. Default 8.
	GradBlocks int

	Seed uint64
}

// DefaultConfig returns the paper-shaped defaults for a GNN config.
func DefaultConfig(gnn ignn.Config) Config {
	return Config{
		GNN:         gnn,
		Epochs:      8,
		BatchSize:   64,
		Shadow:      sampling.DefaultConfig(),
		LR:          1e-3,
		PosWeight:   1.0,
		Ranks:       1,
		Strategy:    ddp.Coalesced,
		BulkBatches: 4,
		Device:      gpumem.A100(),
		GradBlocks:  8,
		Seed:        1,
	}
}

// PyGBaselineConfig configures the paper's baseline: sequential
// per-step ShaDow sampling and per-matrix all-reduce.
func PyGBaselineConfig(gnn ignn.Config, ranks int) Config {
	cfg := DefaultConfig(gnn)
	cfg.Ranks = ranks
	cfg.Sampler = SamplerStandard
	cfg.Strategy = ddp.PerMatrix
	return cfg
}

// OursConfig configures the paper's optimized pipeline: matrix-based
// bulk sampling with memory-derived k and coalesced all-reduce.
func OursConfig(gnn ignn.Config, ranks int) Config {
	cfg := DefaultConfig(gnn)
	cfg.Ranks = ranks
	cfg.BulkBatches = 0
	return cfg
}

// CommStats summarizes the charged (logical) collective traffic.
type CommStats struct {
	// Calls is the number of charged collectives (per-matrix: one per
	// parameter per step; coalesced: one per step; plus the initial
	// weight broadcast).
	Calls int64
	// LogicalBytes is the payload a production DDP would reduce — the
	// flattened gradient bytes, not the simulation's per-block transport.
	LogicalBytes int64
	// Modeled is the α–β ring time of the charged collectives.
	Modeled time.Duration
}

// EpochStats reports one epoch of training.
type EpochStats struct {
	// Loss is the mean canonical step loss (sum of per-edge losses over
	// the global batch divided by its edge count).
	Loss float64
	// StepLosses is the canonical loss trajectory, one entry per
	// optimizer step — the sequence the determinism guarantee covers.
	StepLosses []float64
	// Steps is the number of optimizer steps taken.
	Steps int
	// Skipped is the number of event graphs SamplerFullGraph left out
	// because their activations do not fit Config.Device.
	Skipped int
	// BulkK is the bulk batch count k of the last event graph planned
	// (SamplerMatrixBulk only): Config.BulkBatches, or the derived k.
	BulkK int
	// SamplerCalls is the number of sampler invocations a rank made.
	SamplerCalls int
	// SampledVertices and SampledRoots count, across all ranks, the
	// vertices of the sampled subgraphs and the batch vertices they
	// were grown from.
	SampledVertices, SampledRoots int
	// Sampling and Training are the measured compute sections of a
	// rank's sampler calls and of its training, each the maximum across
	// ranks. See "Timing" in the package comment.
	Sampling, Training time.Duration
	// CommWait is the measured time a rank spent in its collectives,
	// packing their payloads and blocked on the ring (max across ranks).
	CommWait time.Duration
	// Comm is the charged collective traffic of this epoch.
	Comm CommStats
}

// gate bounds how many ranks are inside a timed compute section at once
// (see "Timing" in the package comment).
type gate struct {
	slots chan struct{}
	// inside counts the sections in progress and peak is its high-water
	// mark, kept apart from the channel so a test can check the bound.
	inside, peak atomic.Int32
}

// enter blocks for a slot and starts the section's clock.
func (g *gate) enter() time.Time {
	g.slots <- struct{}{}
	n := g.inside.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	return time.Now()
}

// leave stops the clock, frees the slot and returns the section's time.
func (g *gate) leave(start time.Time) time.Duration {
	d := time.Since(start)
	g.inside.Add(-1)
	<-g.slots
	return d
}

// rankEpoch is what one rank measures and counts during one epoch.
type rankEpoch struct {
	sampling, training, commWait                time.Duration
	samplerCalls, sampledVertices, sampledRoots int
}

// rankState is one rank's private training state.
type rankState struct {
	model  *ignn.Model
	params []*autograd.Param
	opt    nn.Optimizer
	arena  *workspace.Arena
	tape   *autograd.Tape
	ep     rankEpoch

	blockGrads [][]float64 // local block index → flattened gradient (len S)
	transports [][]float64 // bucket index → G×width all-reduce payload
	flat       []float64   // canonical combined gradient (len S)
	scratch    [][]float64 // tree-reduction temporaries, one per level
	meta       []float64   // 2·G: per-block (loss sum, edge count)
	lossTree   []float64   // G: loss sums gathered for tree reduction
	ctrl       []float64   // 1: cancellation consensus flag
}

// Trainer drives DDP training of the Interaction GNN.
type Trainer struct {
	Cfg Config

	ranks   []*rankState
	buckets []ddp.Bucket
	elems   int // S: flattened gradient elements
	gate    *gate
	kc      kernels.Context // each rank's intra-op worker budget

	// ring carries every collective: the initial broadcast, then per step
	// the cancellation flag, each bucket and the per-block losses, issued
	// in that order by every rank. It moves real data but charges no
	// modeled time (its payloads are the simulation's reproducible
	// per-block partials, not what a production ring would ship); the
	// logical collectives are charged explicitly against interconnect.
	ring *comm.Group

	commCalls   int64
	commBytes   int64
	commModeled int64 // ns

	epoch       int
	edgeIndexes map[*pipeline.EventGraph]*sampling.EdgeIndex
	bulkK       map[*pipeline.EventGraph]int // derived k, cached across epochs
	stepLosses  []float64                    // rank 0 appends; driver drains per epoch
}

// New builds a trainer: P identically initialized replicas, per-rank
// arenas and tapes, bucket layout, the ring, and the initial weight
// replication broadcast from rank 0. It fails only when Config.Strategy
// is not ddp.PerMatrix or ddp.Coalesced.
func New(cfg Config) (*Trainer, error) {
	if cfg.Strategy != ddp.PerMatrix && cfg.Strategy != ddp.Coalesced {
		return nil, fmt.Errorf("dtrain: unknown sync strategy %d", cfg.Strategy)
	}
	if cfg.Ranks < 1 {
		cfg.Ranks = 1
	}
	if cfg.GradBlocks < 1 {
		cfg.GradBlocks = 8
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 64
	}
	kc := kernels.Budget(cfg.Ranks, 0)
	slots := runtime.GOMAXPROCS(0) / kc.Cap()
	if slots < 1 {
		slots = 1
	}
	t := &Trainer{
		Cfg:         cfg,
		gate:        &gate{slots: make(chan struct{}, slots)},
		kc:          kc,
		edgeIndexes: make(map[*pipeline.EventGraph]*sampling.EdgeIndex),
		bulkK:       make(map[*pipeline.EventGraph]int),
	}
	replicas := ignn.Replicas(cfg.GNN, cfg.Seed+1000, cfg.Ranks)
	t.elems = nn.GradElements(replicas[0].Params())
	t.buckets = ddp.BucketLayout(replicas[0].Params(), cfg.Strategy)
	t.ring = comm.NewGroup(cfg.Ranks, comm.CostModel{})

	g := cfg.GradBlocks
	levels := 1
	for n := 1; n < g; n *= 2 {
		levels++
	}
	for rank := 0; rank < cfg.Ranks; rank++ {
		st := &rankState{
			model:    replicas[rank],
			params:   replicas[rank].Params(),
			opt:      nn.NewAdam(cfg.LR),
			arena:    workspace.NewArena(),
			flat:     make([]float64, t.elems),
			meta:     make([]float64, 2*g),
			lossTree: make([]float64, g),
			ctrl:     make([]float64, 1),
		}
		st.tape = autograd.NewTapeArena(st.arena)
		st.tape.SetKernels(kc)
		lo, hi := ddp.ShardRange(g, cfg.Ranks, rank)
		for b := lo; b < hi; b++ {
			st.blockGrads = append(st.blockGrads, make([]float64, t.elems))
		}
		for _, b := range t.buckets {
			st.transports = append(st.transports, make([]float64, g*b.Elements()))
		}
		for l := 0; l < levels; l++ {
			st.scratch = append(st.scratch, make([]float64, t.elems))
		}
		t.ranks = append(t.ranks, st)
	}

	// Initial weight replication: rank 0 broadcasts its flattened
	// parameters over the ring so every replica provably starts
	// from the same bits (they already do — the broadcast is the
	// protocol, not a repair).
	if cfg.Ranks > 1 {
		ddp.RunRanks(cfg.Ranks, func(rank int) {
			st := t.ranks[rank]
			buf := make([]float64, nn.ParamElements(st.params))
			nn.FlattenParams(st.params, buf)
			t.ring.Broadcast(rank, buf, 0)
			nn.UnflattenParams(st.params, buf)
		})
		t.charge(1, int64(t.elems*8), interconnect.BroadcastTime(int64(t.elems*8), cfg.Ranks))
	}
	return t, nil
}

// Close releases the trainer's ring.
func (t *Trainer) Close() error { return t.ring.Close() }

// charge records one logical collective against the cost model.
func (t *Trainer) charge(calls, logicalBytes int64, d time.Duration) {
	atomic.AddInt64(&t.commCalls, calls)
	atomic.AddInt64(&t.commBytes, logicalBytes)
	atomic.AddInt64(&t.commModeled, int64(d))
}

// CommStats returns the accumulated charged collective traffic.
func (t *Trainer) CommStats() CommStats {
	return CommStats{
		Calls:        atomic.LoadInt64(&t.commCalls),
		LogicalBytes: atomic.LoadInt64(&t.commBytes),
		Modeled:      time.Duration(atomic.LoadInt64(&t.commModeled)),
	}
}

// Model returns replica 0 (replicas stay bitwise synchronized).
func (t *Trainer) Model() *ignn.Model { return t.ranks[0].model }

// Params returns replica 0's parameters.
func (t *Trainer) Params() []*autograd.Param { return t.ranks[0].params }

// NumBuckets reports how many collectives each step issues.
func (t *Trainer) NumBuckets() int { return len(t.buckets) }

// fold mixes integers into a derived seed (splitmix-style), giving every
// (epoch, event, batch, root) coordinate its own independent stream.
func fold(seed uint64, parts ...uint64) uint64 {
	h := seed
	for _, p := range parts {
		h += 0x9e3779b97f4a7c15
		h = (h ^ p) * 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return h
}

// Stream tags keep the derived RNG families disjoint.
const (
	tagPerm uint64 = 1 // per-event vertex shuffle
	tagRoot uint64 = 2 // per-root sampling stream
)

// planStep is one optimizer step of an epoch's precomputed schedule.
type planStep struct {
	event    int
	batchIdx int   // batch ordinal within its event (stream coordinate)
	roots    []int // global batch vertices
	runLen   int   // >0 on the first step of a sampler invocation's run
	// whole is the event graph as micro-block 0 of a SamplerFullGraph
	// step; the step's other blocks are empty.
	whole *sampling.Subgraph
}

// wholeGraph is the identity subgraph of an event graph.
func wholeGraph(eg *pipeline.EventGraph) *sampling.Subgraph {
	sub := &sampling.Subgraph{
		Vertices: make([]int, eg.NumVertices()),
		Src:      eg.G.Src,
		Dst:      eg.G.Dst,
		EdgeIDs:  make([]int, eg.NumEdges()),
	}
	for i := range sub.Vertices {
		sub.Vertices[i] = i
	}
	for i := range sub.EdgeIDs {
		sub.EdgeIDs[i] = i
	}
	return sub
}

// buildPlan lays out an epoch. For the sampled trainers: per event, a
// seeded shuffle into batches, and consecutive same-event batches
// grouped into sampler runs of k (1 for SamplerStandard). For
// SamplerFullGraph: one step per event graph that fits Cfg.Device — the
// one place that decision is made. The plan's steps and streams are a
// pure function of (seed, epoch, graphs) — never of Ranks, Strategy or k.
func (t *Trainer) buildPlan(epoch int, graphs []*pipeline.EventGraph) (plan []planStep, skipped, bulkK int) {
	for ei, eg := range graphs {
		if eg.NumVertices() == 0 || eg.NumEdges() == 0 {
			continue
		}
		if t.Cfg.Sampler == SamplerFullGraph {
			if !t.Cfg.Device.FitsActivations(ignn.EstimateActivationElements(t.Cfg.GNN, eg.NumVertices(), eg.NumEdges())) {
				skipped++
				continue
			}
			plan = append(plan, planStep{event: ei, whole: wholeGraph(eg)})
			continue
		}
		perm := rng.New(fold(t.Cfg.Seed, tagPerm, uint64(epoch), uint64(ei))).Perm(eg.NumVertices())
		start := len(plan)
		bi := 0
		for lo := 0; lo < len(perm); lo += t.Cfg.BatchSize {
			hi := lo + t.Cfg.BatchSize
			if hi > len(perm) {
				hi = len(perm)
			}
			plan = append(plan, planStep{event: ei, batchIdx: bi, roots: perm[lo:hi]})
			bi++
		}
		k := 1
		if t.Cfg.Sampler == SamplerMatrixBulk {
			k = t.bulkBatches(epoch, eg, plan[start:])
			bulkK = k
		}
		for i := start; i < len(plan); i += k {
			run := len(plan) - i
			if run > k {
				run = k
			}
			plan[i].runLen = run
		}
	}
	return plan, skipped, bulkK
}

// bulkBatches returns k for one event graph's batches: Cfg.BulkBatches
// when set, otherwise as many batches as the aggregate activation
// memory of Ranks devices holds. The footprint of a batch is estimated
// from a probe sample of the first batch's micro-block 0, drawn from
// that block's own streams, and the result is cached per event graph.
func (t *Trainer) bulkBatches(epoch int, eg *pipeline.EventGraph, batches []planStep) int {
	if t.Cfg.BulkBatches > 0 {
		return t.Cfg.BulkBatches
	}
	if k, ok := t.bulkK[eg]; ok {
		return k
	}
	roots, streams := t.rootStreams(epoch, batches[0], 0, 1)
	probe := sampling.BulkMatrixShaDowStreams(eg.G, t.edgeIndexes[eg], roots, t.Cfg.Shadow, streams)[0]
	perBatch := t.Cfg.GradBlocks * ignn.EstimateActivationElements(t.Cfg.GNN, probe.NumVertices(), probe.NumEdges())
	k := gpumem.BulkBatchCount(t.Cfg.Device, t.Cfg.Ranks, perBatch, len(batches))
	t.bulkK[eg] = k
	return k
}

// blockBounds returns micro-block b's [lo, hi) within a batch of n roots.
func (t *Trainer) blockBounds(n, b int) (int, int) {
	return ddp.ShardRange(n, t.Cfg.GradBlocks, b)
}

// rootStreams builds the per-root generators for one batch's local
// blocks: the stream of a root depends only on its (epoch, event, batch,
// position) coordinate, never on sharding.
func (t *Trainer) rootStreams(epoch int, step planStep, blkLo, blkHi int) ([][]int, [][]*rng.Rand) {
	var batches [][]int
	var streams [][]*rng.Rand
	for b := blkLo; b < blkHi; b++ {
		lo, hi := t.blockBounds(len(step.roots), b)
		roots := step.roots[lo:hi]
		ss := make([]*rng.Rand, len(roots))
		for i := range roots {
			ss[i] = rng.New(fold(t.Cfg.Seed, tagRoot, uint64(epoch), uint64(step.event), uint64(step.batchIdx), uint64(lo+i)))
		}
		batches = append(batches, roots)
		streams = append(streams, ss)
	}
	return batches, streams
}

// treeReduceRows combines rows [lo, hi) of a row-major G×w buffer into
// dst with the canonical balanced pairwise tree — the fixed association
// order that makes gradient sums independent of rank layout.
func treeReduceRows(dst, buf []float64, w, lo, hi int, scratch [][]float64, level int) {
	if hi-lo == 1 {
		copy(dst, buf[lo*w:lo*w+w])
		return
	}
	mid := (lo + hi) / 2
	treeReduceRows(dst, buf, w, lo, mid, scratch, level+1)
	tmp := scratch[level][:w]
	treeReduceRows(tmp, buf, w, mid, hi, scratch, level+1)
	for i := range dst {
		dst[i] += tmp[i]
	}
}

// Train runs Cfg.Epochs epochs and returns the per-epoch stats. It stops
// early (returning the completed epochs alongside ctx.Err()) when the
// context is cancelled.
func (t *Trainer) Train(ctx context.Context, graphs []*pipeline.EventGraph) ([]EpochStats, error) {
	var out []EpochStats
	for e := 0; e < t.Cfg.Epochs; e++ {
		stats, err := t.TrainEpoch(ctx, graphs)
		out = append(out, stats)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// TrainEpoch executes one epoch across Cfg.Ranks rank goroutines. All
// ranks decide each step's fate together (a one-word consensus
// collective carries the cancellation flag), so a cancelled context
// stops every rank at the same step boundary with no goroutine leaked
// mid-collective.
func (t *Trainer) TrainEpoch(ctx context.Context, graphs []*pipeline.EventGraph) (EpochStats, error) {
	epoch := t.epoch
	t.epoch++
	if t.Cfg.Sampler != SamplerFullGraph {
		for _, eg := range graphs {
			if _, ok := t.edgeIndexes[eg]; !ok && eg.NumVertices() > 0 && eg.NumEdges() > 0 {
				// Build shared indexes before ranks fan out, and
				// materialize the lazily cached CSR likewise.
				t.edgeIndexes[eg] = sampling.NewEdgeIndex(eg.G)
				eg.G.Adjacency()
			}
		}
	}
	var stats EpochStats
	var plan []planStep
	plan, stats.Skipped, stats.BulkK = t.buildPlan(epoch, graphs)

	commBefore := t.CommStats()
	t.stepLosses = t.stepLosses[:0]
	var stopped atomic.Bool

	ddp.RunRanks(t.Cfg.Ranks, func(rank int) {
		t.runEpochRank(ctx, rank, epoch, plan, graphs, &stopped)
	})

	stats.StepLosses = append([]float64(nil), t.stepLosses...)
	stats.Steps = len(stats.StepLosses)
	if stats.Steps > 0 {
		sum := 0.0
		for _, l := range stats.StepLosses {
			sum += l
		}
		stats.Loss = sum / float64(stats.Steps)
	}
	for _, st := range t.ranks {
		ep := st.ep
		stats.Sampling = max(stats.Sampling, ep.sampling)
		stats.Training = max(stats.Training, ep.training)
		stats.CommWait = max(stats.CommWait, ep.commWait)
		stats.SamplerCalls = max(stats.SamplerCalls, ep.samplerCalls)
		stats.SampledVertices += ep.sampledVertices
		stats.SampledRoots += ep.sampledRoots
	}
	after := t.CommStats()
	stats.Comm = CommStats{
		Calls:        after.Calls - commBefore.Calls,
		LogicalBytes: after.LogicalBytes - commBefore.LogicalBytes,
		Modeled:      after.Modeled - commBefore.Modeled,
	}
	if stopped.Load() {
		return stats, ctx.Err()
	}
	return stats, nil
}

// runEpochRank is one rank's epoch body.
func (t *Trainer) runEpochRank(ctx context.Context, rank, epoch int, plan []planStep, graphs []*pipeline.EventGraph, stopped *atomic.Bool) {
	st := t.ranks[rank]
	st.ep = rankEpoch{}
	g := t.Cfg.GradBlocks
	blkLo, blkHi := ddp.ShardRange(g, t.Cfg.Ranks, rank)
	nLocal := blkHi - blkLo

	// pending holds the sampler run's subgraphs: nLocal per step.
	var pending []*sampling.Subgraph
	pendingAt := 0 // plan index pending starts at

	for si := 0; si < len(plan); si++ {
		step := plan[si]

		// Cancellation consensus: every rank contributes its view of the
		// context and all agree on the max — so either every rank enters
		// this step's collectives or none does.
		st.ctrl[0] = 0
		if ctx.Err() != nil {
			st.ctrl[0] = 1
		}
		wait := time.Now()
		t.ring.AllReduceSum(rank, st.ctrl)
		st.ep.commWait += time.Since(wait)
		if st.ctrl[0] > 0 {
			stopped.Store(true)
			return
		}

		eg := graphs[step.event]

		// Sampling: on a run's first step, one sampler invocation covers
		// this rank's blocks across all runLen batches — stacked into one
		// matrix-sampler call, or walked block by block by the standard
		// sampler (whose runs are one batch long).
		if step.runLen > 0 && nLocal > 0 {
			start := t.gate.enter()
			pendingAt = si
			var batches [][]int
			var streams [][]*rng.Rand
			for ri := 0; ri < step.runLen; ri++ {
				b, s := t.rootStreams(epoch, plan[si+ri], blkLo, blkHi)
				batches = append(batches, b...)
				streams = append(streams, s...)
			}
			if t.Cfg.Sampler == SamplerStandard {
				pending = pending[:0]
				for i, b := range batches {
					pending = append(pending, sampling.StandardShaDowStreams(eg.G, t.edgeIndexes[eg], b, t.Cfg.Shadow, streams[i]))
				}
			} else {
				pending = sampling.BulkMatrixShaDowStreams(eg.G, t.edgeIndexes[eg], batches, t.Cfg.Shadow, streams)
			}
			for i, sub := range pending {
				st.ep.sampledVertices += sub.NumVertices()
				st.ep.sampledRoots += len(batches[i])
			}
			st.ep.samplerCalls++
			st.ep.sampling += t.gate.leave(start)
		}
		if step.whole != nil {
			pending, pendingAt = make([]*sampling.Subgraph, nLocal), si
			if rank == 0 { // the owner of micro-block 0
				pending[0] = step.whole
			}
		}
		off := (si - pendingAt) * nLocal

		t.runStep(st, rank, eg, pending[off:off+nLocal])
	}
}

// runStep executes one optimizer step: per-block backward passes, the
// strategy's collectives, the canonical tree combine, and the identical
// optimizer update on every rank.
func (t *Trainer) runStep(st *rankState, rank int, eg *pipeline.EventGraph, subs []*sampling.Subgraph) {
	g := t.Cfg.GradBlocks
	blkLo, _ := ddp.ShardRange(g, t.Cfg.Ranks, rank)
	clear(st.meta)

	// Per-block forward/backward, one compute section per block.
	for j, sub := range subs {
		if sub == nil || sub.NumEdges() == 0 {
			clear(st.blockGrads[j])
			continue
		}
		start := t.gate.enter()
		nn.ZeroGrads(st.params)
		x := tensor.NewFrom(st.arena, len(sub.Vertices), eg.X.Cols())
		tensor.GatherRowsIntoCtx(t.kc, x, eg.X, sub.Vertices)
		y := tensor.NewFrom(st.arena, len(sub.EdgeIDs), eg.Y.Cols())
		tensor.GatherRowsIntoCtx(t.kc, y, eg.Y, sub.EdgeIDs)
		labels := st.arena.F64(len(sub.EdgeIDs))
		for i, id := range sub.EdgeIDs {
			labels[i] = eg.Label[id]
		}
		st.tape.Reset()
		logits := st.model.Forward(st.tape, sub.Src, sub.Dst, x, y)
		loss := st.tape.BCEWithLogitsSum(logits, labels, t.Cfg.PosWeight)
		st.tape.Backward(loss)
		nn.FlattenGrads(st.params, st.blockGrads[j])
		gb := blkLo + j
		st.meta[2*gb] = loss.Value.At(0, 0)
		st.meta[2*gb+1] = float64(len(sub.EdgeIDs))
		st.arena.Reset()
		st.ep.training += t.gate.leave(start)
	}

	// One all-reduce per bucket, in bucket order. A bucket's transport
	// holds the local blocks' slices at their global block rows, zero
	// elsewhere. Adding +0 normalizes any negative zero so the P=1 (no
	// transport) and P>1 paths agree bitwise.
	wait := time.Now()
	for bi, b := range t.buckets {
		w := b.Elements()
		tr := st.transports[bi]
		clear(tr)
		for j := range subs {
			row := tr[(blkLo+j)*w : (blkLo+j+1)*w]
			for i, v := range st.blockGrads[j][b.Lo:b.Hi] {
				row[i] = v + 0
			}
		}
		t.ring.AllReduceSum(rank, tr)
		if rank == 0 && t.Cfg.Ranks > 1 {
			logical := int64(w * 8)
			t.charge(1, logical, interconnect.RingAllReduceTime(logical, t.Cfg.Ranks))
		}
	}
	// Share per-block loss sums and edge counts (control plane, uncharged).
	t.ring.AllReduceSum(rank, st.meta)
	st.ep.commWait += time.Since(wait)

	totalEdges := 0.0
	for b := 0; b < g; b++ {
		st.lossTree[b] = st.meta[2*b]
		totalEdges += st.meta[2*b+1]
	}
	if totalEdges == 0 {
		return
	}

	start := t.gate.enter()
	// Canonical combine: fixed tree over global block index, identical
	// on every rank, then the global-edge-count normalization.
	for bi, b := range t.buckets {
		treeReduceRows(st.flat[b.Lo:b.Hi], st.transports[bi], b.Elements(), 0, g, st.scratch, 0)
	}
	inv := 1 / totalEdges
	for i := range st.flat {
		st.flat[i] *= inv
	}
	nn.UnflattenGrads(st.params, st.flat)
	st.opt.Step(st.params)
	st.ep.training += t.gate.leave(start)

	if rank == 0 {
		var lossSum float64
		scalarScratch := make([][]float64, len(st.scratch))
		for i := range scalarScratch {
			scalarScratch[i] = st.scratch[i][:1]
		}
		var dst [1]float64
		treeReduceRows(dst[:], st.lossTree, 1, 0, g, scalarScratch, 0)
		lossSum = dst[0]
		t.stepLosses = append(t.stepLosses, lossSum/totalEdges)
	}
}
