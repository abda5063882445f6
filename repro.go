// Package repro is the public API of this reproduction of "Scaling Graph
// Neural Networks for Particle Track Reconstruction" (Tripathy et al.,
// IPPS 2025, arXiv:2504.04670).
//
// The library provides, built entirely on the Go standard library:
//
//   - A synthetic barrel-detector event generator standing in for the
//     paper's CTD and Ex3 datasets (GenerateDataset with CTDLike/Ex3Like).
//   - The five-stage Exa.TrkX pipeline behind the composable repro/recon
//     package: five swappable stage interfaces, functional options, a
//     context-aware Reconstructor, and a concurrent Engine with an HTTP
//     front-end (cmd/serve).
//   - The paper's contribution: minibatch GNN training with ShaDow
//     subgraph sampling, matrix-based bulk sampling, and a coalesced
//     all-reduce for distributed data parallelism, on one trainer whose
//     ranks are real goroutines and whose loss trajectory is bitwise
//     the same at every rank count, sync strategy and sampler
//     (NewTrainer; OursConfig is the paper's pipeline, PyGBaselineConfig
//     and SamplerFullGraph its two baselines; repro/recon.TrainDistributed
//     is the option-based front-end).
//   - Experiment harnesses regenerating every table and figure of the
//     paper's evaluation (Table1, Figure3, Figure4, and the *Ablation
//     functions, all context-aware), run from the command line as
//     cmd/repro's subcommands: table1, figure3, figure4, ablation,
//     scaling and trainpipe.
//
// Quickstart (see API.md for the full recon surface):
//
//	spec := repro.Ex3Like(0.05)
//	spec.NumEvents = 10
//	ds := repro.GenerateDataset(spec, 42)
//	train, _, test := ds.Split(0.8, 0.1)
//	r, _ := recon.New(spec, recon.WithGNN(16, 3), recon.WithSeed(1))
//	_ = r.Fit(ctx, train)
//	res, _ := r.Reconstruct(ctx, test[0])
//	fmt.Println("track efficiency:", res.Match.Efficiency())
//
// See the examples/ directory for runnable programs.
package repro

import (
	"context"

	"repro/internal/ddp"
	"repro/internal/detector"
	"repro/internal/dtrain"
	"repro/internal/experiments"
	"repro/internal/ignn"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/trackio"
)

// Dataset types and generation.
type (
	// DetectorSpec describes a synthetic dataset family (layers, field,
	// kinematics, feature widths).
	DetectorSpec = detector.Spec
	// Dataset is a generated set of collision events.
	Dataset = detector.Dataset
	// Event is one collision event with hits, features, and truth.
	Event = detector.Event
	// Hit is one recorded detector measurement.
	Hit = detector.Hit
	// DatasetStats summarizes a dataset for Table I.
	DatasetStats = detector.Stats
)

// CTDLike returns the CTD-like dataset spec (Table I: 14 vertex features,
// 8 edge features, 3 MLP layers). scale=1 targets paper-sized events.
func CTDLike(scale float64) DetectorSpec { return detector.CTDLike(scale) }

// Ex3Like returns the Ex3-like dataset spec (Table I: 6 vertex features,
// 2 edge features, 2 MLP layers).
func Ex3Like(scale float64) DetectorSpec { return detector.Ex3Like(scale) }

// GenerateDataset simulates spec.NumEvents collision events from seed.
func GenerateDataset(spec DetectorSpec, seed uint64) *Dataset {
	return detector.Generate(spec, seed)
}

// SaveDataset writes a dataset to disk (gzip-compressed gob).
func SaveDataset(path string, ds *Dataset) error { return trackio.Save(path, ds) }

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(path string) (*Dataset, error) { return trackio.Load(path) }

// Pipeline types.
type (
	// PipelineConfig collects pipeline hyperparameters.
	PipelineConfig = pipeline.Config
	// EventGraph is a constructed event graph, the GNN stage's input.
	EventGraph = pipeline.EventGraph
	// Result is full-pipeline inference output with metrics.
	Result = pipeline.Result
	// GNNConfig describes the Interaction GNN.
	GNNConfig = ignn.Config
	// InteractionGNN is the paper's GNN model (Algorithm 1).
	InteractionGNN = ignn.Model
)

// Training types (the paper's contribution).
type (
	// TrainerConfig configures GNN-stage training.
	TrainerConfig = dtrain.Config
	// Trainer trains IGNN replicas across P rank goroutines with a
	// bitwise rank-count-invariant loss trajectory.
	Trainer = dtrain.Trainer
	// EpochStats reports one epoch (losses, phase times, skips, bulk k).
	EpochStats = dtrain.EpochStats
	// CommStats summarizes charged collective traffic.
	CommStats = dtrain.CommStats
	// SyncStrategy selects the DDP gradient synchronization pattern.
	SyncStrategy = ddp.SyncStrategy
	// ShadowConfig holds ShaDow sampling hyperparameters.
	ShadowConfig = sampling.Config
	// TrainingHistory is a per-epoch convergence record.
	TrainingHistory = metrics.History
	// BinaryCounts is a confusion-count summary with precision/recall.
	BinaryCounts = metrics.BinaryCounts
	// TrackMatch is the double-majority track matching summary.
	TrackMatch = metrics.TrackMatch
)

// How a step's training subgraphs are produced (TrainerConfig.Sampler).
const (
	// SamplerMatrixBulk is the paper's matrix-based bulk sampler.
	SamplerMatrixBulk = dtrain.SamplerMatrixBulk
	// SamplerStandard is the sequential Algorithm 2 sampler (PyG baseline).
	SamplerStandard = dtrain.SamplerStandard
	// SamplerFullGraph trains on whole event graphs (original Exa.TrkX).
	SamplerFullGraph = dtrain.SamplerFullGraph
)

// The gradient synchronization strategies.
const (
	// PerMatrixSync all-reduces each parameter matrix separately.
	PerMatrixSync = ddp.PerMatrix
	// CoalescedSync reduces one flattened buffer — the paper's choice.
	CoalescedSync = ddp.Coalesced
)

// DefaultTrainerConfig returns paper-shaped trainer defaults for a GNN
// configuration.
func DefaultTrainerConfig(gnn GNNConfig) TrainerConfig { return dtrain.DefaultConfig(gnn) }

// PyGBaselineConfig configures the paper's baseline (standard sampler,
// per-matrix all-reduce) for the given rank count.
func PyGBaselineConfig(gnn GNNConfig, ranks int) TrainerConfig {
	return dtrain.PyGBaselineConfig(gnn, ranks)
}

// OursConfig configures the paper's optimized pipeline (matrix bulk
// sampler with memory-derived k, coalesced all-reduce).
func OursConfig(gnn GNNConfig, ranks int) TrainerConfig { return dtrain.OursConfig(gnn, ranks) }

// NewTrainer builds the trainer; it fails only on a sync strategy other
// than PerMatrixSync or CoalescedSync. Close it when done.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) { return dtrain.New(cfg) }

// Experiment harnesses (Table I, Figures 3 and 4, ablations).
type (
	// ExperimentOptions configures an experiment run; zero values pick
	// laptop-scale defaults.
	ExperimentOptions = experiments.Options
	// Table1Row is one dataset row of Table I.
	Table1Row = experiments.Table1Row
	// EpochTimeRow is one stacked bar of Figure 3.
	EpochTimeRow = experiments.EpochTimeRow
	// ConvergenceResult holds the three curves of Figure 4.
	ConvergenceResult = experiments.ConvergenceResult
	// AllReduceRow is one point of the all-reduce ablation.
	AllReduceRow = experiments.AllReduceRow
	// BulkKRow is one point of the bulk batch count ablation.
	BulkKRow = experiments.BulkKRow
	// FanoutRow is one point of the ShaDow hyperparameter ablation.
	FanoutRow = experiments.FanoutRow
	// BatchSizeRow is one point of the batch-size ablation.
	BatchSizeRow = experiments.BatchSizeRow
)

// Table1 regenerates Table I at the configured scale. Cancelling the
// context returns the rows completed so far alongside ctx.Err().
func Table1(ctx context.Context, o ExperimentOptions) ([]Table1Row, error) {
	return experiments.RunTable1Context(ctx, o)
}

// Figure3 regenerates Figure 3 (epoch time across process counts),
// checking the context between measurement cells.
func Figure3(ctx context.Context, o ExperimentOptions, procs []int) ([]EpochTimeRow, error) {
	return experiments.RunFigure3Context(ctx, o, procs)
}

// Figure3Speedups pairs Figure 3 rows into per-P speedups of Ours vs PyG.
func Figure3Speedups(rows []EpochTimeRow) map[int]float64 { return experiments.Speedups(rows) }

// Figure4 regenerates Figure 4 (convergence of full-graph vs ShaDow
// minibatch training), checking the context between the three runs.
func Figure4(ctx context.Context, o ExperimentOptions) (*ConvergenceResult, error) {
	return experiments.RunFigure4Context(ctx, o)
}

// AllReduceAblation measures per-matrix vs coalesced all-reduce cost.
func AllReduceAblation(ctx context.Context, o ExperimentOptions, procs []int, steps int) ([]AllReduceRow, error) {
	return experiments.RunAllReduceAblationContext(ctx, o, procs, steps)
}

// BulkKAblation sweeps the bulk batch count.
func BulkKAblation(ctx context.Context, o ExperimentOptions, ks []int) ([]BulkKRow, error) {
	return experiments.RunBulkKAblationContext(ctx, o, ks)
}

// FanoutAblation sweeps ShaDow (depth, fanout).
func FanoutAblation(ctx context.Context, o ExperimentOptions, pairs [][2]int) ([]FanoutRow, error) {
	return experiments.RunFanoutAblationContext(ctx, o, pairs)
}

// BatchSizeAblation sweeps the training batch size.
func BatchSizeAblation(ctx context.Context, o ExperimentOptions, sizes []int) ([]BatchSizeRow, error) {
	return experiments.RunBatchSizeAblationContext(ctx, o, sizes)
}
