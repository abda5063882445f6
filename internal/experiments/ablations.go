package experiments

import (
	"context"

	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// BulkKRow is one point of the bulk-batch-count ablation (§IV-C): how the
// sampling share of epoch time falls as more minibatches are sampled per
// bulk invocation.
type BulkKRow struct {
	K            int
	Sampling     time.Duration
	Training     time.Duration
	SamplerCalls int // bulk invocations per epoch (approximate: steps/k)
}

// RunBulkKAblationContext sweeps the bulk batch count k at fixed P and
// measures the epoch-time phase split, checking the context between
// sweep points.
func RunBulkKAblationContext(ctx context.Context, o Options, ks []int) ([]BulkKRow, error) {
	o = o.withDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8}
	}
	train, _, gnn := buildGraphs(o)
	var rows []BulkKRow
	for _, k := range ks {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		cfg := core.OursConfig(gnn, 1)
		cfg.BatchSize = o.BatchSize
		cfg.BulkK = k
		cfg.Seed = o.Seed
		cfg.SamplerOverhead = o.SamplerOverhead
		tr := core.NewTrainer(cfg)
		tr.TrainEpochMinibatch(train) // warm
		stats := tr.TrainEpochMinibatch(train)
		calls := stats.Steps / k
		if stats.Steps%k != 0 {
			calls++
		}
		rows = append(rows, BulkKRow{
			K:            k,
			Sampling:     stats.Timer.Get(metrics.PhaseSampling),
			Training:     stats.Timer.Get(metrics.PhaseTraining),
			SamplerCalls: calls,
		})
	}
	return rows, nil
}

// FanoutRow is one point of the ShaDow hyperparameter ablation.
type FanoutRow struct {
	Depth, Fanout       int
	Precision, Recall   float64
	EpochTime           time.Duration
	AvgSubgraphVertices float64
}

// RunFanoutAblationContext sweeps ShaDow (depth, fanout) pairs and
// reports validation quality and epoch cost, checking the context
// between sweep points.
func RunFanoutAblationContext(ctx context.Context, o Options, pairs [][2]int) ([]FanoutRow, error) {
	o = o.withDefaults()
	if len(pairs) == 0 {
		pairs = [][2]int{{1, 4}, {2, 4}, {3, 6}, {2, 8}}
	}
	train, val, gnn := buildGraphs(o)
	var rows []FanoutRow
	for _, pd := range pairs {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		cfg := core.OursConfig(gnn, 1)
		cfg.BatchSize = o.BatchSize
		cfg.Shadow.Depth, cfg.Shadow.Fanout = pd[0], pd[1]
		cfg.Epochs = o.Epochs
		cfg.Seed = o.Seed
		tr := core.NewTrainer(cfg)
		start := time.Now()
		for e := 0; e < cfg.Epochs; e++ {
			tr.TrainEpochMinibatch(train)
		}
		elapsed := time.Since(start) / time.Duration(cfg.Epochs)
		counts := tr.Evaluate(val)
		rows = append(rows, FanoutRow{
			Depth:     pd[0],
			Fanout:    pd[1],
			Precision: counts.Precision(),
			Recall:    counts.Recall(),
			EpochTime: elapsed,
		})
	}
	return rows, nil
}

// BatchSizeRow is one point of the generalization-vs-batch-size ablation
// (the Keskar et al. argument the paper builds on).
type BatchSizeRow struct {
	BatchSize         int
	StepsPerEpoch     int
	Precision, Recall float64
	F1                float64
}

// RunBatchSizeAblationContext trains at several batch sizes for a fixed
// epoch budget and reports final validation quality, checking the
// context between sweep points.
func RunBatchSizeAblationContext(ctx context.Context, o Options, sizes []int) ([]BatchSizeRow, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{32, 128, 512}
	}
	train, val, gnn := buildGraphs(o)
	var rows []BatchSizeRow
	for _, bs := range sizes {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		cfg := core.OursConfig(gnn, 1)
		cfg.BatchSize = bs
		cfg.Epochs = o.Epochs
		cfg.Seed = o.Seed
		tr := core.NewTrainer(cfg)
		steps := 0
		for e := 0; e < cfg.Epochs; e++ {
			steps = tr.TrainEpochMinibatch(train).Steps
		}
		counts := tr.Evaluate(val)
		rows = append(rows, BatchSizeRow{
			BatchSize:     bs,
			StepsPerEpoch: steps,
			Precision:     counts.Precision(),
			Recall:        counts.Recall(),
			F1:            counts.F1(),
		})
	}
	return rows, nil
}
