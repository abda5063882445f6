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
// synchronizes gradients under one of three strategies: one collective
// per parameter matrix (the baseline), one coalesced collective (the
// paper's optimization), or bucketed collectives overlapped with the
// backward pass (the PyTorch-DDP refinement: a bucket enters the ring
// as soon as its layer's backward completes).
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
// EpochStats separates what is measured from what is modelled.
//
// Measured: each rank times its compute sections (a sampler call; one
// block's gather, forward, backward and flatten; the tree combine and
// optimizer step) and, separately, the time it spends in its
// collectives, packing payloads and blocked on the ring
// (EpochStats.CommWait). Sampling, Training and CommWait
// are each the maximum across ranks, the bulk-synchronous cost of a
// data-parallel step.
//
// Modelled: AllReduce is the α–β ring time on NVLink 3.0 of the logical
// collectives a production NCCL deployment would run for the same
// payload (k·2(P−1)·α latency for per-matrix, one 2(P−1)·α for
// coalesced, one per bucket for bucketed), because channel hops on a
// host do not resemble a GPU interconnect. Config.SamplerOverhead is
// added to Sampling once per sampler invocation per rank
// (EpochStats.SamplerCalls), standing in for the kernel-launch and
// dataloader cost that makes batch-by-batch GPU sampling expensive, and
// Config.ComputeSpeedup divides Training, standing in for accelerator
// dense-compute throughput. Both are applied where EpochStats is
// assembled and charge nothing at their zero value; PERF.md ("Figure 3
// timing model") records the calibration.
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/gpumem"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/tensor"
	"repro/internal/transport"
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
	// Strategy selects the gradient synchronization pattern.
	Strategy ddp.SyncStrategy
	// BucketBytes caps each bucket for ddp.Bucketed
	// (ddp.DefaultBucketBytes when 0).
	BucketBytes int
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

	// KernelWorkers bounds the intra-op parallelism of each rank's
	// kernels (0 = auto). Rank goroutines really run concurrently here,
	// so the per-rank budget is kernels.Budget(Ranks, KernelWorkers):
	// ranks × kernel-workers never exceeds GOMAXPROCS. A pure
	// performance knob — the loss trajectory is bitwise identical at
	// every value.
	KernelWorkers int

	// Network, when non-nil, carries the ring links of every transport
	// group over a pluggable transport (transport.TCP routes them through
	// real sockets; transport.Loopback through in-process pipes with a
	// registry). nil keeps the direct in-process pipe wiring. The loss
	// trajectory is bitwise identical either way — the reduction order is
	// a function of (Ranks, rank, length) only, never of the transport.
	// Callers that set Network should Close the trainer to release the
	// connections.
	Network transport.Network

	// SamplerOverhead is the modelled fixed cost of one sampler
	// invocation (kernel launch, dataloader orchestration), charged to
	// the Sampling phase per invocation per rank.
	SamplerOverhead time.Duration
	// ComputeSpeedup models the dense-compute throughput of the device
	// relative to this host: charged Training is measured Training
	// divided by it (0 or 1 charges the measurement). Sampling is a
	// sparse host-side workload and is never scaled.
	ComputeSpeedup float64

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
	// parameter per step; coalesced: one per step; bucketed: one per
	// bucket per step; plus the initial weight broadcast).
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
	// Timer breaks the epoch into Sampling / Training (compute sections,
	// max across ranks, with SamplerOverhead and ComputeSpeedup applied)
	// and AllReduce (modeled collective time). See "Timing" in the
	// package comment.
	Timer *metrics.PhaseTimer
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

	paramIdx map[*autograd.Param]int

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

	ranks        []*rankState
	buckets      []ddp.Bucket
	bucketOfIdx  []int // param index → bucket index
	paramOffsets []int // param index → offset in the flattened gradient
	elems        int   // S: flattened gradient elements
	gate         *gate
	kc           kernels.Context // each rank's intra-op worker budget

	// Transport groups move real data through ring channels but charge
	// no modeled time (their payloads are the simulation's reproducible
	// per-block partials, not what a production ring would ship); the
	// logical collectives are charged explicitly against interconnect.
	groups       []*comm.Group // every group, for Close
	bucketGroups []*comm.Group
	metaGroup    *comm.Group
	ctrlGroup    *comm.Group

	commCalls   int64
	commBytes   int64
	commModeled int64 // ns

	epoch       int
	edgeIndexes map[*pipeline.EventGraph]*sampling.EdgeIndex
	bulkK       map[*pipeline.EventGraph]int // derived k, cached across epochs
	stepLosses  []float64                    // rank 0 appends; driver drains per epoch
}

// New builds a trainer: P identically initialized replicas, per-rank
// arenas and tapes, bucket layout, transport groups, and the initial
// weight replication broadcast from rank 0. It fails only when the ring
// links cannot be formed over Config.Network.
func New(cfg Config) (*Trainer, error) {
	if cfg.Ranks < 1 {
		cfg.Ranks = 1
	}
	if cfg.GradBlocks < 1 {
		cfg.GradBlocks = 8
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 64
	}
	kc := kernels.Budget(cfg.Ranks, cfg.KernelWorkers)
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

	switch cfg.Strategy {
	case ddp.PerMatrix:
		t.buckets = ddp.BucketLayout(replicas[0].Params(), 1) // one param per bucket
	case ddp.Bucketed:
		t.buckets = ddp.BucketLayout(replicas[0].Params(), cfg.BucketBytes)
	default:
		t.buckets = ddp.BucketLayout(replicas[0].Params(), t.elems*8+1) // single bucket
	}

	params0 := replicas[0].Params()
	t.bucketOfIdx = make([]int, len(params0))
	for bi, b := range t.buckets {
		for _, p := range b.Params {
			t.bucketOfIdx[p] = bi
		}
	}
	t.paramOffsets = make([]int, len(params0)+1)
	for i, p := range params0 {
		t.paramOffsets[i+1] = t.paramOffsets[i] + p.Grad.Size()
	}

	nb := len(t.buckets)
	for len(t.groups) < nb+2 {
		g, err := newGroup(cfg)
		if err != nil {
			t.Close() // the formation error is the one to report
			return nil, err
		}
		t.groups = append(t.groups, g)
	}
	t.bucketGroups, t.metaGroup, t.ctrlGroup = t.groups[:nb], t.groups[nb], t.groups[nb+1]

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
			paramIdx: make(map[*autograd.Param]int),
			flat:     make([]float64, t.elems),
			meta:     make([]float64, 2*g),
			lossTree: make([]float64, g),
			ctrl:     make([]float64, 1),
		}
		st.tape = autograd.NewTapeArena(st.arena)
		st.tape.SetKernels(kc)
		for i, p := range st.params {
			st.paramIdx[p] = i
		}
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
	// parameters over the control group so every replica provably starts
	// from the same bits (they already do — the broadcast is the
	// protocol, not a repair).
	if cfg.Ranks > 1 {
		ddp.RunRanks(cfg.Ranks, func(rank int) {
			st := t.ranks[rank]
			buf := make([]float64, nn.ParamElements(st.params))
			nn.FlattenParams(st.params, buf)
			t.ctrlGroup.Broadcast(rank, buf, 0)
			nn.UnflattenParams(st.params, buf)
		})
		t.charge(1, int64(t.elems*8), interconnect.BroadcastTime(int64(t.elems*8), cfg.Ranks))
	}
	return t, nil
}

// newGroup builds one uncharged transport group: direct in-process
// pipes by default, ring links over cfg.Network when one is configured.
func newGroup(cfg Config) (*comm.Group, error) {
	if cfg.Network == nil {
		return comm.NewGroup(cfg.Ranks, comm.CostModel{}), nil
	}
	g, err := comm.NewGroupNetwork(cfg.Ranks, comm.CostModel{}, cfg.Network, nil)
	if err != nil {
		return nil, fmt.Errorf("dtrain: ring formation over network: %w", err)
	}
	return g, nil
}

// Close releases the trainer's transport groups. A trainer over
// in-process pipes does not strictly need it; one over a real network
// (Config.Network) holds open sockets until closed.
func (t *Trainer) Close() error {
	var first error
	for _, g := range t.groups {
		if err := g.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

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
	stats := EpochStats{Timer: metrics.NewPhaseTimer()}
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
	// The modelled device is a clock applied to the measured phases:
	// one SamplerOverhead per invocation, Training over ComputeSpeedup.
	var samplingMax, trainingMax time.Duration
	for _, st := range t.ranks {
		ep := st.ep
		samplingMax = max(samplingMax, ep.sampling+time.Duration(ep.samplerCalls)*t.Cfg.SamplerOverhead)
		trainingMax = max(trainingMax, ep.training)
		stats.CommWait = max(stats.CommWait, ep.commWait)
		stats.SamplerCalls = max(stats.SamplerCalls, ep.samplerCalls)
		stats.SampledVertices += ep.sampledVertices
		stats.SampledRoots += ep.sampledRoots
	}
	if t.Cfg.ComputeSpeedup > 1 {
		trainingMax = time.Duration(float64(trainingMax) / t.Cfg.ComputeSpeedup)
	}
	stats.Timer.AddDuration(metrics.PhaseSampling, samplingMax)
	stats.Timer.AddDuration(metrics.PhaseTraining, trainingMax)
	after := t.CommStats()
	stats.Comm = CommStats{
		Calls:        after.Calls - commBefore.Calls,
		LogicalBytes: after.LogicalBytes - commBefore.LogicalBytes,
		Modeled:      after.Modeled - commBefore.Modeled,
	}
	stats.Timer.AddDuration(metrics.PhaseAllReduce, stats.Comm.Modeled)
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
		t.ctrlGroup.AllReduceSum(rank, st.ctrl)
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
	nLocal := len(subs)
	bucketed := t.Cfg.Strategy == ddp.Bucketed

	for i := range st.meta {
		st.meta[i] = 0
	}

	launched := make([]bool, len(t.buckets))
	var wg sync.WaitGroup
	bucketRemaining := make([]int, len(t.buckets))
	for bi, b := range t.buckets {
		bucketRemaining[bi] = len(b.Params)
	}

	launch := func(bi int) {
		// Fill the bucket's transport: local blocks' slices at their
		// global block rows, zero elsewhere. Adding +0 normalizes any
		// negative zero so the P=1 (no transport) and P>1 paths agree
		// bitwise.
		b := t.buckets[bi]
		w := b.Elements()
		tr := st.transports[bi]
		for i := range tr {
			tr[i] = 0
		}
		for j := 0; j < nLocal; j++ {
			row := tr[(blkLo+j)*w : (blkLo+j+1)*w]
			src := st.blockGrads[j][b.Lo:b.Hi]
			for i, v := range src {
				row[i] = v + 0
			}
		}
		launched[bi] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.bucketGroups[bi].AllReduceSum(rank, tr)
			if rank == 0 && t.Cfg.Ranks > 1 {
				logical := int64(w * 8)
				t.charge(1, logical, interconnect.RingAllReduceTime(logical, t.Cfg.Ranks))
			}
		}()
	}

	// Per-block forward/backward, one compute section per block. The
	// final local block arms the param-grad hook under the bucketed
	// strategy so each bucket's collective launches the moment its
	// layer's backward completes, overlapping communication with the
	// rest of the pass (the collective runs on its own goroutine, which
	// does not hold the gate).
	for j := 0; j < nLocal; j++ {
		sub := subs[j]
		final := j == nLocal-1
		if sub == nil || sub.NumEdges() == 0 {
			for i := range st.blockGrads[j] {
				st.blockGrads[j][i] = 0
			}
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
		if bucketed && final {
			bg := st.blockGrads[j]
			// The hook writes only the parameters backward reaches; clear
			// the slot so a parameter without gradient flow contributes
			// zeros rather than the previous step's values.
			for i := range bg {
				bg[i] = 0
			}
			st.tape.SetParamGradHook(func(p *autograd.Param) {
				pi := st.paramIdx[p]
				bi := t.bucketOfIdx[pi]
				// Flatten this parameter's finished gradient into the
				// final block's slot, then launch the bucket when it is
				// the last to arrive.
				off := t.paramOffsets[pi]
				copy(bg[off:off+p.Grad.Size()], p.Grad.Data())
				bucketRemaining[bi]--
				if bucketRemaining[bi] == 0 {
					launch(bi)
				}
			})
		}
		st.tape.Backward(loss)
		if bucketed && final {
			st.tape.SetParamGradHook(nil)
		} else {
			nn.FlattenGrads(st.params, st.blockGrads[j])
		}
		gb := blkLo + j
		st.meta[2*gb] = loss.Value.At(0, 0)
		st.meta[2*gb+1] = float64(len(sub.EdgeIDs))
		st.arena.Reset()
		st.ep.training += t.gate.leave(start)
	}

	// Issue whatever the hook did not: all buckets for the synchronous
	// strategies; stragglers (empty final block, grad-free params) for
	// the bucketed one. Order is deterministic; each bucket has its own
	// transport group, so in-flight overlapped buckets are unaffected.
	wait := time.Now()
	for bi := range t.buckets {
		if !launched[bi] {
			launch(bi)
		}
	}
	wg.Wait()

	// Share per-block loss sums and edge counts (control plane, uncharged).
	t.metaGroup.AllReduceSum(rank, st.meta)
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
