package recon_test

import (
	"context"
	"testing"

	"repro/internal/ddp"
	"repro/internal/detector"
	"repro/internal/metrics"
	"repro/recon"
)

// distGraphs builds truth-level event graphs through the recon surface.
func distGraphs(t *testing.T, events int) (recon.DetectorSpec, []*recon.EventGraph) {
	t.Helper()
	spec := detector.Ex3Like(0.02)
	spec.NumEvents = events
	ds := detector.Generate(spec, 33)
	r, err := recon.New(spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var egs []*recon.EventGraph
	for _, ev := range ds.Events {
		eg, err := r.BuildGraph(context.Background(), ev)
		if err != nil {
			t.Fatal(err)
		}
		egs = append(egs, eg)
	}
	return spec, egs
}

func distOpts(extra ...recon.Option) []recon.Option {
	base := []recon.Option{
		recon.WithGNN(8, 2),
		recon.WithGNNTraining(2, 3e-3, 1),
		recon.WithBatchSize(48),
		recon.WithSeed(7),
	}
	return append(base, extra...)
}

// TestTrainDistributedRankParity is the public-API acceptance criterion:
// P=4 matches the P=1 loss trajectory bit for bit on a fixed seed.
func TestTrainDistributedRankParity(t *testing.T) {
	_, egs := distGraphs(t, 2)
	ctx := context.Background()
	want, err := recon.TrainDistributed(ctx, egs, distOpts(recon.WithRanks(1))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Losses) == 0 {
		t.Fatal("no steps recorded")
	}
	for _, p := range []int{2, 4} {
		got, err := recon.TrainDistributed(ctx, egs, distOpts(recon.WithRanks(p))...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Losses) != len(want.Losses) {
			t.Fatalf("P=%d: %d steps vs %d", p, len(got.Losses), len(want.Losses))
		}
		for i := range want.Losses {
			if got.Losses[i] != want.Losses[i] {
				t.Fatalf("P=%d step %d: %.17g != %.17g", p, i, got.Losses[i], want.Losses[i])
			}
		}
	}
}

// TestTrainDistributedClassifierPlugsIn: the trained classifier slots
// into a Reconstructor as stage 4, scores its training graphs, and
// reconstructs events end to end.
func TestTrainDistributedClassifierPlugsIn(t *testing.T) {
	spec, egs := distGraphs(t, 2)
	ctx := context.Background()
	res, err := recon.TrainDistributed(ctx, egs, distOpts(recon.WithRanks(2), recon.WithSyncStrategy(ddp.PerMatrix))...)
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := recon.New(spec, recon.WithEdgeClassifier(res.Classifier), recon.WithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	var counts metrics.BinaryCounts
	for _, eg := range egs {
		out, err := scorer.ReconstructOn(ctx, eg)
		if err != nil {
			t.Fatal(err)
		}
		counts.Merge(out.EdgeCounts)
	}
	if counts.Precision() == 0 && counts.Recall() == 0 {
		t.Fatal("trained classifier scored nothing")
	}
	r, err := recon.New(spec,
		recon.WithTruthLevelGraphs(1.5), recon.WithSeed(5),
		recon.WithEdgeClassifier(res.Classifier), recon.WithThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	ds := detector.Generate(func() recon.DetectorSpec { s := spec; s.NumEvents = 1; return s }(), 91)
	out, err := r.Reconstruct(ctx, ds.Events[0])
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("nil result")
	}
}

func TestTrainDistributedOptionErrors(t *testing.T) {
	_, egs := distGraphs(t, 1)
	ctx := context.Background()
	for _, opts := range [][]recon.Option{
		{recon.WithRanks(0)},
		{recon.WithBulkBatches(0)},
		{recon.WithSyncStrategy(recon.SyncStrategy(2))},
		{recon.WithSyncStrategy(recon.SyncStrategy(99))},
		{recon.WithBatchSize(0)},
	} {
		if _, err := recon.TrainDistributed(ctx, egs, opts...); err == nil {
			t.Fatalf("invalid option %T accepted", opts[0])
		}
	}
	if _, err := recon.TrainDistributed(ctx, nil); err == nil {
		t.Fatal("empty graph list accepted")
	}
}

func TestTrainDistributedCancelled(t *testing.T) {
	_, egs := distGraphs(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := recon.TrainDistributed(ctx, egs, distOpts(recon.WithRanks(2))...)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result should still be returned")
	}
	if len(res.Losses) != 0 {
		t.Fatalf("cancelled-before-start run recorded %d steps", len(res.Losses))
	}
}
