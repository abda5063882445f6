package experiments

import (
	"context"
	"time"

	"repro/internal/dtrain"
	"repro/internal/metrics"
)

// BulkKRow is one point of the bulk-batch-count ablation (§IV-C): how the
// sampling share of epoch time falls as more minibatches are sampled per
// bulk invocation.
type BulkKRow struct {
	K            int
	Sampling     time.Duration
	Training     time.Duration
	SamplerCalls int // bulk invocations per epoch
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
		cfg := o.trainerConfig(dtrain.OursConfig(gnn, 1))
		cfg.Epochs = 2 // warm, then measured
		cfg.BulkBatches = k
		cfg.SamplerOverhead = o.SamplerOverhead
		_, stats, err := run(ctx, cfg, train, nil)
		if err != nil {
			return rows, err
		}
		rows = append(rows, BulkKRow{
			K:            k,
			Sampling:     stats.Timer.Get(metrics.PhaseSampling),
			Training:     stats.Timer.Get(metrics.PhaseTraining),
			SamplerCalls: stats.SamplerCalls,
		})
	}
	return rows, nil
}

// FanoutRow is one point of the ShaDow hyperparameter ablation.
type FanoutRow struct {
	Depth, Fanout       int
	Precision, Recall   float64
	EpochTime           time.Duration // the trainer's last-epoch phase total
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
		cfg := o.trainerConfig(dtrain.OursConfig(gnn, 1))
		cfg.Shadow.Depth, cfg.Shadow.Fanout = pd[0], pd[1]
		h, stats, err := run(ctx, cfg, train, val)
		if err != nil {
			return rows, err
		}
		rows = append(rows, FanoutRow{
			Depth:               pd[0],
			Fanout:              pd[1],
			Precision:           h.Final().Precision,
			Recall:              h.Final().Recall,
			EpochTime:           stats.Timer.Total(),
			AvgSubgraphVertices: float64(stats.SampledVertices) / float64(stats.SampledRoots),
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
		cfg := o.trainerConfig(dtrain.OursConfig(gnn, 1))
		cfg.BatchSize = bs
		h, stats, err := run(ctx, cfg, train, val)
		if err != nil {
			return rows, err
		}
		pr, rc := h.Final().Precision, h.Final().Recall
		row := BatchSizeRow{BatchSize: bs, StepsPerEpoch: stats.Steps, Precision: pr, Recall: rc}
		if pr+rc > 0 {
			row.F1 = 2 * pr * rc / (pr + rc)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
