package main

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/recon"
)

// trainDist is the paper's own contribution end to end:
// recon.TrainDistributed with bulk ShaDow sampling and one coalesced
// gradient collective per step, at two rank goroutines. One op is one
// epoch over one training graph; its latency is reported per step, a
// step being trainBatch sampled roots (the last, short batch of a graph
// counts for the share of a step it is), so the number does not swing
// with how a graph's vertex count divides into batches.
type trainDist struct {
	// trained is the GNN after the fixed budget, the model the quality
	// metrics are read from.
	trained recon.EdgeClassifier
}

func newTrainDist() *trainDist { return &trainDist{} }

// truthGraphs builds the truth-level training graphs (ratio 1.5) of events.
func truthGraphs(ctx context.Context, spec recon.DetectorSpec, events []*recon.Event) ([]*recon.EventGraph, error) {
	r, err := recon.New(spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(1))
	if err != nil {
		return nil, err
	}
	graphs := make([]*recon.EventGraph, len(events))
	for i, ev := range events {
		if graphs[i], err = r.BuildGraph(ctx, ev); err != nil {
			return nil, err
		}
	}
	return graphs, nil
}

// fixture trains for the fixed budget, trainEpochs over trainGraphs
// fixed graphs. Like every fixture it sees the same events on every
// run, so the quality it reaches moves only when the trainer does.
func (w *trainDist) fixture(ctx context.Context, _ string) error {
	spec, events := seedEvents(size.trainScale, size.trainGraphs, fixtureSeed)
	graphs, err := truthGraphs(ctx, spec, events)
	if err != nil {
		return err
	}
	res, err := recon.TrainDistributed(ctx, graphs, trainOptions(trainRanks, size.trainEpochs)...)
	if err != nil {
		return err
	}
	w.trained = res.Classifier
	return nil
}

// trainOptions is the train_dist configuration at the given rank count
// and epoch budget.
func trainOptions(ranks, epochs int) []recon.Option {
	return []recon.Option{
		recon.WithRanks(ranks), recon.WithBulkBatches(trainBulk), recon.WithSyncStrategy(recon.CoalescedSync),
		recon.WithBatchSize(trainBatch), recon.WithGNN(16, 3), recon.WithGNNTraining(epochs, 3e-3, 2.0), recon.WithSeed(1),
	}
}

func (w *trainDist) setup(ctx context.Context, seed uint64, _ *tracer) (*instance, error) {
	// The seed's first trainGraphs events are trained on, the next one
	// warms up, and the rest are held out for validation.
	spec, events := seedEvents(size.trainScale, size.trainGraphs+1+size.valEvents, seed)
	graphs, err := truthGraphs(ctx, spec, events[:size.trainGraphs+1])
	if err != nil {
		return nil, err
	}
	train, val := graphs[:size.trainGraphs], events[size.trainGraphs+1:]
	epoch := func(ctx context.Context, g *recon.EventGraph, ranks int) (*recon.DistTrainResult, error) {
		return recon.TrainDistributed(ctx, []*recon.EventGraph{g}, trainOptions(ranks, 1)...)
	}
	// Warm-up: one epoch on a validation graph fills the pools.
	if _, err := epoch(ctx, graphs[size.trainGraphs], trainRanks); err != nil {
		return nil, err
	}

	var mu sync.Mutex
	first := make([]*recon.DistTrainResult, len(train)) // each training graph's first epoch
	var all []*recon.DistTrainResult
	inst := &instance{kind: "train", callers: 1, stepUnits: trainBatch, close: func() {}}
	inst.do = func(ctx context.Context, i int) (float64, error) {
		g := train[i%len(train)]
		res, err := epoch(ctx, g, trainRanks)
		if err != nil {
			return float64(g.NumVertices()), err
		}
		mu.Lock()
		if i < len(first) {
			first[i] = res
		}
		all = append(all, res)
		mu.Unlock()
		return float64(g.NumVertices()), nil
	}
	// p1 is the plain single-worker baseline of the first op.
	p1 := func(ctx context.Context) (res *recon.DistTrainResult, wall time.Duration, err error) {
		t0 := time.Now()
		res, err = epoch(ctx, train[0], 1)
		return res, time.Since(t0), err
	}
	inst.verify = func(ctx context.Context, rep *report) (quality, error) {
		var q quality
		var err error
		if first[0] == nil { // cannot happen while a window runs at least one op
			if first[0], err = epoch(ctx, train[0], trainRanks); err != nil {
				return q, err
			}
		}
		base, _, err := p1(ctx)
		if err != nil {
			return q, err
		}
		rep.check(slices.Equal(base.Losses, first[0].Losses), "epoch-1 step losses at P=%d are not bitwise equal to P=1", trainRanks)

		// Quality after the fixed budget: reconstruct the seed's held-out
		// events with the fixture's GNN.
		vr, err := recon.New(spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(1), recon.WithEdgeClassifier(w.trained))
		if err != nil {
			return q, err
		}
		for _, ev := range val {
			out, err := vr.Reconstruct(ctx, ev)
			if err != nil {
				return q, err
			}
			q.addResult(out)
		}
		rep.check(q.precision() >= 0.8, "edge_precision %.4f below the 0.8 floor", q.precision())
		rep.check(q.recall() >= 0.8, "edge_recall %.4f below the 0.8 floor", q.recall())
		return q, nil
	}
	inst.layers = func(ctx context.Context, rep *report, plain window) error {
		put := func(name string, v float64, n int) { rep.layer[name] = value{v, n} }
		var steps int
		var sampling, compute, modeled time.Duration
		var calls, logical int64
		for _, res := range all {
			for _, e := range res.Epochs {
				steps += e.Steps
				sampling += e.Sampling
				compute += e.Training
			}
			calls += res.Comm.Calls
			logical += res.Comm.LogicalBytes
			modeled += res.Comm.Modeled
		}
		if steps == 0 {
			return nil
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(steps) }
		put("dtrain.steps", float64(steps), len(all))
		put("sampling.busy_ms_per_step", ms(sampling), steps)
		put("dtrain.compute_ms_per_step", ms(compute), steps)
		put("comm.calls_per_step", float64(calls)/float64(steps), steps)
		put("comm.logical_kb_per_step", float64(logical)/1024/float64(steps), steps)
		put("comm.modeled_ms_per_step", ms(modeled), steps)
		last := all[len(all)-1]
		put("dtrain.final_loss", last.Losses[len(last.Losses)-1], len(last.Losses))
		put("ddp.buckets", float64(last.Buckets), 1)
		kc := kernels.Budget(trainRanks, 0)
		put("kernels.workers", float64(kc.Cap()), 1)

		base, p1Wall, err := p1(ctx)
		if err != nil {
			return err
		}
		t0 := time.Now()
		again, err := epoch(ctx, train[0], trainRanks)
		if err != nil {
			return err
		}
		put("dtrain.speedup_vs_p1", p1Wall.Seconds()/time.Since(t0).Seconds(), 1)
		equal := 0.0
		if slices.Equal(base.Losses, again.Losses) {
			equal = 1
		}
		put("dtrain.loss_equal_p1", equal, len(base.Losses))

		bulkSampling(rep, train[0])
		params := 0
		for _, p := range last.Classifier.(recon.Parameterized).Params() {
			params += p.Value.Size()
		}
		put("comm.allreduce_ms", allReduceMs(params), size.kernelCalls)
		g := train[0]
		kernelLedger(rep, kc, recon.Float64, g.G.Src, g.G.Dst, g.NumVertices(), 16)
		return nil
	}
	return inst, nil
}

// bulkSampling times one direct bulk ShaDow call of trainBulk batches of
// trainBatch roots on g, and reads the sampled subgraph sizes.
func bulkSampling(rep *report, g *recon.EventGraph) {
	eidx := sampling.NewEdgeIndex(g.G)
	perm := rng.New(fixtureSeed).Perm(g.NumVertices())
	var batches [][]int
	for lo := 0; lo+trainBatch <= len(perm) && len(batches) < trainBulk; lo += trainBatch {
		batches = append(batches, perm[lo:lo+trainBatch])
	}
	roots := len(batches) * trainBatch
	if roots == 0 {
		return
	}
	var subs []*sampling.Subgraph
	callMs := medianCallMs(func() {
		// One fresh stream per root, as the trainer draws them.
		streams := make([][]*rng.Rand, len(batches))
		for i := range streams {
			streams[i] = make([]*rng.Rand, trainBatch)
			for j := range streams[i] {
				streams[i][j] = rng.New(uint64(i*trainBatch + j))
			}
		}
		subs = sampling.BulkMatrixShaDowStreams(g.G, eidx, batches, sampling.DefaultConfig(), streams)
	})
	var vertices, edges int
	for _, s := range subs {
		vertices += s.NumVertices()
		edges += s.NumEdges()
	}
	rep.layer["sampling.bulk_call_ms"] = value{callMs, size.kernelCalls}
	rep.layer["sampling.vertices_per_root"] = value{float64(vertices) / float64(roots), roots}
	rep.layer["sampling.edges_per_root"] = value{float64(edges) / float64(roots), roots}
}

// allReduceMs times a ring all-reduce of a gradient-sized buffer across
// trainRanks rank goroutines.
func allReduceMs(elems int) float64 {
	g := comm.NewGroup(trainRanks, comm.NVLink3())
	defer g.Close()
	bufs := make([][]float64, trainRanks)
	for i := range bufs {
		bufs[i] = make([]float64, elems)
	}
	return medianCallMs(func() {
		var wg sync.WaitGroup
		for rank := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.AllReduceSum(rank, bufs[rank])
			}()
		}
		wg.Wait()
	})
}
