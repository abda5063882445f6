package main

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"slices"

	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/recon"
)

// trainingEvents are what the fixtures train on: always the same events.
func trainingEvents(scale float64, n int) []*recon.Event {
	_, events := seedEvents(scale, n, fixtureSeed)
	return events
}

// seedEvents are a run's measured inputs.
func seedEvents(scale float64, n int, seed uint64) (recon.DetectorSpec, []*recon.Event) {
	spec := detector.Ex3Like(scale)
	spec.NumEvents = n
	return spec, detector.Generate(spec, seed).Events
}

func (q *quality) addResult(res *recon.Result) {
	q.matched += res.Match.Matched
	q.reconstructable += res.Match.Reconstructable
	q.tp += res.EdgeCounts.TP
	q.fp += res.EdgeCounts.FP
	q.fn += res.EdgeCounts.FN
}

// reconGNN is recon_gnn_{f64,f32,i8}: one caller, one event per
// Engine.ReconstructBatch call on truth-level graphs, engine at one
// worker so both cores go to the intra-op kernel workers.
type reconGNN struct {
	prec   recon.Precision
	ckpt   string // the checkpoint the measured engine loads
	ckpt64 string // the float64 original, the accuracy reference
}

func newReconGNN(prec string) *reconGNN {
	p, _ := recon.ParsePrecision(prec)
	return &reconGNN{prec: p}
}

// gnnOptions is the recon_gnn_* reconstructor: truth-level graphs and
// the pipeline.DefaultConfig GNN (hidden 32, 4 steps).
func gnnOptions(extra ...recon.Option) []recon.Option {
	return append([]recon.Option{recon.WithTruthLevelGraphs(1.0), recon.WithSeed(1)}, extra...)
}

func (w *reconGNN) fixture(ctx context.Context, dir string) error {
	spec := detector.Ex3Like(size.eventScale)
	train := trainingEvents(size.fitScale, size.gnnFitEvents)
	r, err := recon.New(spec, gnnOptions(recon.WithGNNTraining(size.gnnFitEpochs, 6e-3, 2.0))...)
	if err != nil {
		return err
	}
	if err := r.Fit(ctx, train); err != nil {
		return err
	}
	w.ckpt64 = filepath.Join(dir, "gnn-f64.ckpt")
	w.ckpt = w.ckpt64
	if err := r.SaveCheckpoint(w.ckpt64); err != nil {
		return err
	}
	if w.prec != recon.Int8 {
		return nil
	}
	// The int8 artefact is exported the way trackrecon -save-int8 does:
	// quantize the trained weights, calibrate on the training events,
	// write a v4 checkpoint that serves without recalibration.
	r8, err := recon.New(spec, gnnOptions(recon.WithPrecision(recon.Int8))...)
	if err != nil {
		return err
	}
	if err := r8.LoadCheckpoint(w.ckpt64); err != nil {
		return err
	}
	if err := r8.Calibrate(ctx, train); err != nil {
		return err
	}
	w.ckpt = filepath.Join(dir, "gnn-i8.ckpt")
	return r8.SaveCheckpointInt8(w.ckpt)
}

func (w *reconGNN) setup(ctx context.Context, seed uint64, tr *tracer) (*instance, error) {
	spec, events := seedEvents(size.eventScale, size.gnnEvents, seed)
	opts := gnnOptions(recon.WithPrecision(w.prec))
	if tr != nil {
		opts = append(opts, recon.WithStageWrapper(stageTracer{}))
	}
	r, err := recon.New(spec, opts...)
	if err != nil {
		return nil, err
	}
	if err := r.LoadCheckpoint(w.ckpt); err != nil {
		return nil, err
	}
	eng, err := recon.NewEngine(r, recon.WithWorkers(gnnWorkers))
	if err != nil {
		return nil, err
	}
	one := func(ctx context.Context, ev *recon.Event) (*recon.Result, error) {
		res, err := eng.ReconstructBatch(ctx, []*recon.Event{ev})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	for _, ev := range events[:size.warmEvents] {
		if _, err := one(ctx, ev); err != nil {
			return nil, err
		}
	}
	first := make([]*recon.Result, len(events)) // each event's first measured answer
	inst := &instance{kind: "gnn", callers: 1, stepUnits: 1, gnnSteps: 4, close: func() {}}
	inst.do = func(ctx context.Context, i int) (float64, error) {
		res, err := one(ctx, events[i%len(events)])
		if err == nil && i < len(first) {
			first[i] = res
		}
		return 1, err
	}
	inst.verify = func(ctx context.Context, rep *report) (quality, error) {
		var q quality
		var err error
		for i, ev := range events {
			if first[i] == nil { // the window ended before this event's turn
				if first[i], err = one(ctx, ev); err != nil {
					return q, err
				}
			}
			q.addResult(first[i])
		}
		var ref *recon.Reconstructor
		if w.prec != recon.Float64 {
			if ref, err = recon.New(spec, gnnOptions()...); err != nil {
				return q, err
			}
			if err := ref.LoadCheckpoint(w.ckpt64); err != nil {
				return q, err
			}
		}
		for i, ev := range events[:size.verifyEvents] {
			serial, err := r.Reconstruct(ctx, ev)
			if err != nil {
				return q, err
			}
			rep.check(reflect.DeepEqual(serial, first[i]), "event %d: engine answer differs from serial Reconstruct at %v", i, w.prec)
		}
		if ref == nil {
			rep.check(q.efficiency() >= 0.9, "track_efficiency %.4f below the 0.9 floor", q.efficiency())
			return q, nil
		}
		// API.md's accuracy budget for the reduced precisions is on the
		// aggregate, so it is read over all of the seed's events: over
		// verifyEvents alone one seed in thirty spent two thirds of it on
		// the luck of eight events.
		var want quality
		for _, ev := range events {
			res, err := ref.Reconstruct(ctx, ev)
			if err != nil {
				return q, err
			}
			want.addResult(res)
		}
		rep.check(math.Abs(q.efficiency()-want.efficiency()) <= 0.02, "%v track_efficiency %.4f vs f64 %.4f: outside ±0.02", w.prec, q.efficiency(), want.efficiency())
		rep.check(math.Abs(q.precision()-want.precision()) <= 0.02, "%v edge_precision %.4f vs f64 %.4f: outside ±0.02", w.prec, q.precision(), want.precision())
		return q, nil
	}
	inst.layers = func(ctx context.Context, rep *report, _ window) error {
		st := eng.Stats()
		rep.layer["engine.rejected"] = value{float64(st.Rejected), 1}
		rep.layer["engine.panics_recovered"] = value{float64(st.PanicsRecovered), 1}
		kc := kernels.Budget(gnnWorkers, 0)
		rep.layer["kernels.workers"] = value{float64(kc.Cap()), 1}
		eg, err := r.BuildGraph(ctx, events[0])
		if err != nil {
			return err
		}
		kernelLedger(rep, kc, w.prec, eg.G.Src, eg.G.Dst, eg.NumVertices(), 32)
		return nil
	}
	return inst, nil
}

// oracle scores every edge with its truth label. graph_build never runs
// stage 4; the oracle stands in for it so that Fit trains stages 1-3
// only and the constructed graph can be scored for the track efficiency
// a perfect classifier would reach on it.
type oracle struct{}

func (oracle) ScoreEdges(ctx context.Context, _ *recon.Arena, eg *recon.EventGraph) ([]float64, error) {
	return slices.Clone(eg.Label), ctx.Err()
}

// graphBuild loops Reconstructor.BuildGraph over held-out events: embed,
// k-d tree radius search, filter MLP and AssembleGraph do all the work.
type graphBuild struct{ ckpt string }

func newGraphBuild() *graphBuild { return &graphBuild{} }

func (w *graphBuild) fixture(ctx context.Context, dir string) error {
	r, err := recon.New(detector.Ex3Like(size.eventScale), recon.WithEdgeClassifier(oracle{}), recon.WithSeed(1))
	if err != nil {
		return err
	}
	if err := r.Fit(ctx, trainingEvents(size.fitScale, size.buildFitEvents)); err != nil {
		return err
	}
	w.ckpt = filepath.Join(dir, "stages13.ckpt")
	return r.SaveCheckpoint(w.ckpt)
}

func (w *graphBuild) setup(ctx context.Context, seed uint64, tr *tracer) (*instance, error) {
	spec, events := seedEvents(size.eventScale, size.buildEvents, seed)
	opts := []recon.Option{recon.WithEdgeClassifier(oracle{}), recon.WithSeed(1)}
	if tr != nil {
		opts = append(opts, recon.WithStageWrapper(stageTracer{}))
	}
	r, err := recon.New(spec, opts...)
	if err != nil {
		return nil, err
	}
	if err := r.LoadCheckpoint(w.ckpt); err != nil {
		return nil, err
	}
	for _, ev := range events[:size.warmEvents] {
		if _, err := r.BuildGraph(ctx, ev); err != nil {
			return nil, err
		}
	}
	first := make([]*recon.EventGraph, len(events))
	inst := &instance{kind: "build", callers: 1, stepUnits: 1, close: func() {}}
	inst.do = func(ctx context.Context, i int) (float64, error) {
		eg, err := r.BuildGraph(ctx, events[i%len(events)])
		if err == nil && i < len(first) {
			first[i] = eg
		}
		return 1, err
	}
	inst.verify = func(ctx context.Context, rep *report) (quality, error) {
		var q quality
		var err error
		for i, ev := range events {
			if first[i] == nil {
				if first[i], err = r.BuildGraph(ctx, ev); err != nil {
					return q, err
				}
			}
			eg := first[i]
			kept := 0
			for _, l := range eg.Label {
				if l > 0.5 {
					kept++
				}
			}
			// Purity and truth-edge recall of the constructed graph.
			q.tp += kept
			q.fp += eg.NumEdges() - kept
			q.fn += len(ev.TruthSrc) - kept
			res, err := r.ReconstructOn(ctx, eg)
			if err != nil {
				return q, err
			}
			q.matched += res.Match.Matched
			q.reconstructable += res.Match.Reconstructable
		}
		for i, ev := range events[:size.verifyEvents] {
			again, err := r.BuildGraph(ctx, ev)
			if err != nil {
				return q, err
			}
			same := slices.Equal(again.G.Src, first[i].G.Src) && slices.Equal(again.G.Dst, first[i].G.Dst)
			rep.check(same, "event %d: a second BuildGraph gave a different edge list", i)
		}
		rep.check(q.recall() >= 0.6, "edge_recall %.4f below the 0.6 floor", q.recall())
		return q, nil
	}
	inst.layers = func(_ context.Context, rep *report, _ window) error {
		// Every other graph_build row comes from the stage spans.
		rep.layer["kernels.workers"] = value{float64(kernels.Budget(1, 0).Cap()), 1}
		return nil
	}
	return inst, nil
}
