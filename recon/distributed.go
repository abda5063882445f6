package recon

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ddp"
	"repro/internal/dtrain"
	"repro/internal/ignn"
)

// SyncStrategy selects how distributed training synchronizes gradients.
type SyncStrategy = ddp.SyncStrategy

// CoalescedSync stacks every gradient into one buffer and reduces once —
// the paper's optimization, and TrainDistributed's default. The per-matrix
// baseline the paper measures against is ddp.PerMatrix.
const CoalescedSync SyncStrategy = ddp.Coalesced

// DistEpoch summarizes one epoch of distributed training.
type DistEpoch struct {
	Loss     float64       // mean canonical step loss
	Steps    int           // optimizer steps
	Sampling time.Duration // bulk sampling wall time (max across ranks)
	Training time.Duration // forward/backward/optimizer wall time (max across ranks)
	Comm     time.Duration // modeled α–β collective time
}

// DistCommStats is the charged collective traffic of a training run.
type DistCommStats struct {
	Calls        int64         // charged collectives
	LogicalBytes int64         // flattened-gradient payload bytes
	Modeled      time.Duration // α–β ring time
}

// DistTrainResult is the outcome of TrainDistributed.
type DistTrainResult struct {
	// Classifier is the trained GNN stage; plug it into a Reconstructor
	// with WithEdgeClassifier. It also implements Parameterized, so
	// checkpointing picks its weights up.
	Classifier EdgeClassifier
	// Losses is the full per-step canonical loss trajectory — bitwise
	// identical for every rank count, sync strategy, and bulk batch
	// count under a fixed seed.
	Losses []float64
	// Epochs holds the per-epoch summaries.
	Epochs []DistEpoch
	// Comm is the charged collective traffic across the run.
	Comm DistCommStats
	// Buckets is the number of collectives each step issued.
	Buckets int
}

// TrainDistributed trains an Interaction GNN edge classifier over the
// event graphs with the paper's full distributed pipeline: P rank
// goroutines (WithRanks), each owning a model replica and a pinned
// arena, bulk-sample their shard of every batch as one sparse-matrix
// operation (WithBulkBatches) and synchronize gradients with one
// coalesced collective or one collective per parameter matrix
// (WithSyncStrategy).
//
// Determinism contract: under a fixed WithSeed, the loss trajectory and
// the trained weights are bit-for-bit identical for every rank count,
// sync strategy, and bulk batch count — parallelism and communication
// layout are performance knobs, never numeric ones. See internal/dtrain
// for the mechanism (per-root sampling streams, canonical gradient
// micro-blocks, fixed-tree reduction).
//
// Cancelling ctx stops all ranks at the next step boundary and returns
// the work completed so far alongside ctx.Err().
func TrainDistributed(ctx context.Context, graphs []*EventGraph, opts ...Option) (*DistTrainResult, error) {
	set, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	var nodeF, edgeF int
	for _, eg := range graphs {
		if eg.NumVertices() > 0 && eg.NumEdges() > 0 {
			nodeF, edgeF = eg.X.Cols(), eg.Y.Cols()
			break
		}
	}
	if nodeF == 0 {
		return nil, fmt.Errorf("recon: TrainDistributed needs at least one non-empty event graph")
	}

	gnn := ignn.Config{NodeFeatures: nodeF, EdgeFeatures: edgeF, Hidden: 16, Steps: 3}
	if set.gnnHidden != nil {
		gnn.Hidden = *set.gnnHidden
	}
	if set.gnnSteps != nil {
		gnn.Steps = *set.gnnSteps
	}

	tr, err := dtrain.New(trainerConfig(set, gnn))
	if err != nil {
		return nil, err
	}
	defer tr.Close() // in-process pipes: nothing to report
	epochs, trainErr := tr.Train(ctx, graphs)

	m := tr.Model()
	res := &DistTrainResult{
		Classifier: gnnClassifier[float64]{m: m, fw: &forwards[float64]{gnn: ignn.NewInference[float64](m)}},
		Buckets:    tr.NumBuckets(),
	}
	for _, es := range epochs {
		res.Losses = append(res.Losses, es.StepLosses...)
		res.Epochs = append(res.Epochs, DistEpoch{
			Loss:     es.Loss,
			Steps:    es.Steps,
			Sampling: es.Sampling,
			Training: es.Training,
			Comm:     es.Comm.Modeled,
		})
	}
	cs := tr.CommStats()
	res.Comm = DistCommStats{Calls: cs.Calls, LogicalBytes: cs.LogicalBytes, Modeled: cs.Modeled}
	if trainErr != nil {
		return res, trainErr
	}
	return res, nil
}

// trainerConfig maps the options onto a dtrain configuration for the
// given GNN shape: the one place TrainDistributed and Fit's stage 4 read
// epochs, learning rate, positive weight, kernel workers and seed from.
func trainerConfig(set settings, gnn ignn.Config) dtrain.Config {
	cfg := dtrain.DefaultConfig(gnn)
	cfg.Epochs = set.gnnEpochs
	cfg.BatchSize = set.batchSize
	cfg.LR = set.gnnLR
	cfg.PosWeight = set.gnnPosWeight
	cfg.Ranks = set.ranks
	cfg.Strategy = set.sync
	cfg.BulkBatches = set.bulkBatches
	cfg.Seed = set.seed
	return cfg
}
