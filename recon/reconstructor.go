package recon

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/dtrain"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/fp"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/workspace"
)

// Reconstructor composes the five reconstruction stages behind one
// context-aware, per-event entry point, and owns the models of the
// three learned stages. Construct with New, restore trained weights
// with LoadCheckpoint, and wrap in an Engine for concurrency.
//
// A Reconstructor is safe for concurrent use once training is done:
// inference only reads model weights.
type Reconstructor struct {
	spec DetectorSpec
	cfg  pipeline.Config
	set  settings

	// The stages invoked per event, wrapped by WithStageWrapper
	// middleware (fault injection, tracing) when there is one.
	embedder   Embedder
	builder    GraphBuilder
	filter     EdgeFilter
	classifier EdgeClassifier
	extractor  TrackExtractor

	// The models of the learned stages: what the stage adapters run,
	// Fit trains and checkpoints persist. Initialised from rng.New(seed)
	// in this order, so weights repeat per seed.
	embedModel  *embed.Embedder
	filterModel *filter.EdgeFilter
	gnnModel    *ignn.Model

	// low holds the float32 forwards the reduced-precision stage
	// adapters read (nil at Float64, where the adapters run the models'
	// own parameter-aliasing views); syncInference refills it whenever
	// the float64 weights change.
	low *forwards[float32]

	// i8scales holds the calibrated activation scales SaveCheckpointInt8
	// exports (nil until Calibrate or an export sets them, and again
	// whenever the weights move: Fit, LoadCheckpoint), and calEvents the representative
	// events an export calibrates on (the latest Fit's training events; a
	// synthetic batch when empty). Serving never reads either.
	i8scales  *i8Scales
	calEvents []*Event
}

// New builds a reconstructor with freshly initialized models for the
// given detector spec. Options override hyperparameters and pick the
// stage variants (truth-level graphs, a custom edge classifier).
func New(spec DetectorSpec, opts ...Option) (*Reconstructor, error) {
	set, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig(spec)
	applyConfig(&cfg, set)
	return assemble(spec, cfg, set), nil
}

// applyConfig folds option overrides into the resolved hyperparameters.
func applyConfig(cfg *pipeline.Config, set settings) {
	if set.gnnThreshold != nil {
		cfg.GNNThreshold = *set.gnnThreshold
	}
	if set.gnnHidden != nil {
		cfg.GNN.Hidden = *set.gnnHidden
	}
	if set.gnnSteps != nil {
		cfg.GNN.Steps = *set.gnnSteps
	}
}

func assemble(spec DetectorSpec, cfg pipeline.Config, set settings) *Reconstructor {
	seeds := rng.New(set.seed)
	r := &Reconstructor{
		spec: spec, cfg: cfg, set: set,
		embedModel:  embed.New(cfg.Embed, seeds.Split()),
		filterModel: filter.New(cfg.Filter, seeds.Split()),
		gnnModel:    ignn.New(cfg.GNN, seeds.Split()),
	}
	// The one place a precision picks the element type of the stage
	// adapters: float64 over the models' own views, float32 over the
	// forwards syncInference fills in.
	if set.precision == Float64 {
		fw := newForwards[float64](r.embedModel, r.filterModel, r.gnnModel)
		resolveStages(r, &fw)
	} else {
		r.low = &forwards[float32]{}
		resolveStages(r, r.low)
	}
	r.extractor = ccExtractor{minTrackHits: cfg.MinTrackHits}
	if w := set.wrapper; w != nil {
		r.embedder = w.WrapEmbedder(r.embedder)
		r.builder = w.WrapGraphBuilder(r.builder)
		r.filter = w.WrapEdgeFilter(r.filter)
		r.classifier = w.WrapEdgeClassifier(r.classifier)
		r.extractor = w.WrapTrackExtractor(r.extractor)
	}
	r.syncInference()
	return r
}

// resolveStages settles stages 1–4 on the adapters running fw at
// element type T, with a WithEdgeClassifier stage in the GNN's place.
func resolveStages[T fp.Float](r *Reconstructor, fw *forwards[T]) {
	r.embedder = mlpEmbedder[T]{fw: fw}
	r.builder, r.filter = graphStages(r, fw)
	r.classifier = r.set.classifier
	if r.classifier == nil {
		r.classifier = gnnClassifier[T]{m: r.gnnModel, fw: fw}
	}
}

// graphStages returns stages 2 and 3 running fw at element type T: the
// radius search and the filter MLP, or truth-level graphs, which bypass
// the filter (matching pipeline.TruthLevelGraph).
func graphStages[T fp.Float](r *Reconstructor, fw *forwards[T]) (GraphBuilder, EdgeFilter) {
	if r.set.truthLevel {
		return truthBuilder{fakeRatio: r.set.truthRatio, baseSeed: r.set.seed}, passFilter{}
	}
	return radiusBuilder[T]{radius: r.cfg.Radius, maxDegree: r.cfg.MaxDegree}, mlpFilter[T]{fw: fw, spec: r.spec}
}

// syncInference refreshes the reduced-precision forwards from the
// models' float64 parameters. Called at construction and after every
// operation that rewrites the weights (Fit, on every return path, and
// LoadCheckpoint); a no-op at Float64, where the stage models'
// inference views alias the training parameters' own storage and have
// nothing to refresh. Int8 is a storage format: its forwards are the
// Float32 forwards over the weights rounded to the int8 grid
// (int8Models). Must not race
// concurrent inference — the Reconstructor is documented as safe for
// concurrent use only once training is done.
func (r *Reconstructor) syncInference() {
	emb, filt, gnn := r.embedModel, r.filterModel, r.gnnModel
	switch r.set.precision {
	case Float64:
		return
	case Int8:
		emb, filt, gnn = r.int8Models()
	}
	*r.low = newForwards[float32](emb, filt, gnn)
}

// int8Models returns throw-away copies of the three stage models whose
// parameters hold what a v4 checkpoint of the trained ones loads back
// as (nn.SnapInt8), so an Int8 reconstructor and one loaded from its
// own SaveCheckpointInt8 file serve bitwise-identical scores. The
// float64 training parameters are only read.
func (r *Reconstructor) int8Models() (*embed.Embedder, *filter.EdgeFilter, *ignn.Model) {
	seeds := rng.New(0)
	emb := embed.New(r.cfg.Embed, seeds.Split())
	filt := filter.New(r.cfg.Filter, seeds.Split())
	gnn := ignn.New(r.cfg.GNN, seeds.Split())
	nn.SnapInt8(modelParams(emb, filt, gnn), modelParams(r.embedModel, r.filterModel, r.gnnModel))
	return emb, filt, gnn
}

// modelParams lists the parameters of the three stage models in
// checkpoint order.
func modelParams(emb *embed.Embedder, filt *filter.EdgeFilter, gnn *ignn.Model) []*Param {
	return append(append(emb.Params(), filt.Params()...), gnn.Params()...)
}

// Precision returns the inference precision of the learned stages.
func (r *Reconstructor) Precision() Precision { return r.set.precision }

// Spec returns the detector spec the reconstructor was built for.
func (r *Reconstructor) Spec() DetectorSpec { return r.spec }

// Threshold returns the stage-4 decision threshold.
func (r *Reconstructor) Threshold() float64 { return r.cfg.GNNThreshold }

// kernelCtx installs the serial intra-op worker budget on ctx for the
// stage adapters (see stages.go). Engine workers install their
// own divided budget instead.
func (r *Reconstructor) kernelCtx(ctx context.Context) context.Context {
	return kernels.Into(ctx, kernels.Budget(1, 0))
}

// BuildGraph runs stages 1–3 on an event. The returned EventGraph is
// heap-owned and remains valid indefinitely.
func (r *Reconstructor) BuildGraph(ctx context.Context, ev *Event) (*EventGraph, error) {
	a := workspace.NewArena()
	defer a.Reset()
	return r.buildGraphWith(r.kernelCtx(ctx), a, ev)
}

func (r *Reconstructor) buildGraphWith(ctx context.Context, a *Arena, ev *Event) (*EventGraph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	embedThunk := func() (m *Matrix, err error) {
		err = guardStage("embed", func() error {
			var e error
			m, e = r.embedder.Embed(ctx, a, ev)
			return e
		})
		return m, err
	}
	var src, dst []int
	err := guardStage("build", func() error {
		var e error
		src, dst, e = r.builder.BuildEdges(ctx, a, ev, embedThunk)
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("recon: build edges: %w", err)
	}
	var fsrc, fdst []int
	err = guardStage("filter", func() error {
		var e error
		fsrc, fdst, e = r.filter.FilterEdges(ctx, a, ev, src, dst)
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("recon: filter edges: %w", err)
	}
	return pipeline.AssembleGraph(r.spec, ev, fsrc, fdst), nil
}

// guardStage invokes one stage call, converting a panic in the stage
// implementation into a *StageError so a poisoned event degrades one
// result instead of killing the process. Ordinary stage errors pass
// through untouched; a panic in the guarded embed thunk surfaces as a
// *StageError returned through the builder, so attribution follows the
// stage that actually panicked.
func guardStage(stage string, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &StageError{Stage: stage, Event: -1, Panic: p, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Reconstruct runs all five stages on one event and scores the output
// against truth. It is the serial entry point; use an Engine for
// batches.
func (r *Reconstructor) Reconstruct(ctx context.Context, ev *Event) (*Result, error) {
	a := workspace.NewArena()
	defer a.Reset()
	return r.reconstructWith(r.kernelCtx(ctx), a, ev)
}

// ReconstructOn runs stages 4–5 on a pre-built event graph.
func (r *Reconstructor) ReconstructOn(ctx context.Context, eg *EventGraph) (*Result, error) {
	a := workspace.NewArena()
	defer a.Reset()
	return r.reconstructOnWith(r.kernelCtx(ctx), a, eg)
}

// reconstructWith is the engine's per-event unit of work: everything
// transient comes from the caller's arena, released before returning,
// so a worker's pinned arena stays warm across events.
func (r *Reconstructor) reconstructWith(ctx context.Context, a *Arena, ev *Event) (*Result, error) {
	mark := a.Checkpoint()
	defer a.ResetTo(mark)
	eg, err := r.buildGraphWith(ctx, a, ev)
	if err != nil {
		return nil, err
	}
	return r.reconstructOnWith(ctx, a, eg)
}

func (r *Reconstructor) reconstructOnWith(ctx context.Context, a *Arena, eg *EventGraph) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{}
	keep := make([]bool, eg.NumEdges())
	if eg.NumEdges() > 0 {
		var scores []float64
		err := guardStage("classify", func() error {
			var e error
			scores, e = r.classifier.ScoreEdges(ctx, a, eg)
			return e
		})
		if err != nil {
			return nil, fmt.Errorf("recon: score edges: %w", err)
		}
		if len(scores) != eg.NumEdges() {
			return nil, fmt.Errorf("recon: classifier returned %d scores for %d edges", len(scores), eg.NumEdges())
		}
		for k, s := range scores {
			keep[k] = s >= r.cfg.GNNThreshold
			res.EdgeCounts.Add(keep[k], eg.Label[k] > 0.5)
		}
	}
	var tracks [][]int
	err := guardStage("extract", func() error {
		var e error
		tracks, e = r.extractor.ExtractTracks(ctx, eg, keep)
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("recon: extract tracks: %w", err)
	}
	res.Tracks = tracks
	hitParticle := make([]int, eg.Event.NumHits())
	trueHits := make(map[int]int)
	for i, h := range eg.Event.Hits {
		hitParticle[i] = h.Particle
		if h.Particle >= 0 {
			trueHits[h.Particle]++
		}
	}
	for p, n := range trueHits {
		if n < r.cfg.MinTrackHits {
			delete(trueHits, p)
		}
	}
	res.Match = metrics.MatchTracks(res.Tracks, hitParticle, trueHits, r.cfg.MinTrackHits)
	return res, nil
}

// Fit trains the learned stages on the given events: the embedding and
// filter stages through the staged Exa.TrkX procedure (skipped under
// truth-level graphs, which use neither), then the GNN stage on the
// graphs the trained stages 1–3 build (skipped when WithEdgeClassifier
// replaces it).
//
// The GNN stage trains full-graph on the trainer
// TrainDistributed runs (internal/dtrain with SamplerFullGraph at one
// rank): one optimizer step per event graph, and a graph whose
// activations exceed the modelled device is skipped. It keeps its
// pre-Fit weights unless that training completes. Whenever Fit returns,
// cancelled or not, every precision serves the weights SaveCheckpoint
// writes.
func (r *Reconstructor) Fit(ctx context.Context, events []*Event) error {
	if len(events) == 0 {
		return errors.New("recon: Fit needs at least one training event")
	}
	// The training events are the representative sample an int8 export
	// calibrates on from here on; any previously calibrated scales are
	// stale the moment the weights move.
	r.calEvents, r.i8scales = events, nil
	defer r.syncInference()
	if !r.set.truthLevel {
		// The staged Exa.TrkX procedure: embedder first, then the filter
		// on radius graphs built in the trained embedding space. Training
		// is serial: its tapes run under the serial entry points' budget.
		kc := kernels.From(r.kernelCtx(ctx))
		if err := pipeline.FitStages13(ctx, kc, r.cfg, r.embedModel, r.filterModel, events, r.set.seed+1); err != nil {
			return err
		}
		// The reduced-precision adapters read weight snapshots; refresh
		// them so the graphs built for GNN training below see the freshly
		// trained stages 1–3.
		r.syncInference()
	}
	if r.set.classifier == nil {
		graphs := make([]*EventGraph, 0, len(events))
		for _, ev := range events {
			eg, err := r.BuildGraph(ctx, ev)
			if err != nil {
				return err
			}
			graphs = append(graphs, eg)
		}
		cfg := trainerConfig(r.set, r.cfg.GNN)
		cfg.Sampler, cfg.Ranks = dtrain.SamplerFullGraph, 1
		tr, err := dtrain.New(cfg)
		if err != nil {
			return err
		}
		defer tr.Close() // in-process pipes: nothing to report
		// The trainer owns its replica: the model's values go in before
		// training and come back into the same storage after it, which the
		// Float64 adapters alias.
		own := r.gnnModel.Params()
		buf := make([]float64, nn.ParamElements(own))
		nn.FlattenParams(own, buf)
		nn.UnflattenParams(tr.Params(), buf)
		if _, err := tr.Train(ctx, graphs); err != nil {
			return err
		}
		nn.FlattenParams(tr.Params(), buf)
		nn.UnflattenParams(own, buf)
	}
	return ctx.Err()
}

// params lists the checkpoint layout: the embedder's, the filter's and
// the GNN's parameters, whichever stages serve, with a WithEdgeClassifier
// stage's own parameters (if any) in the GNN's place.
func (r *Reconstructor) params() []*Param {
	if r.set.classifier == nil {
		return modelParams(r.embedModel, r.filterModel, r.gnnModel)
	}
	ps := append(r.embedModel.Params(), r.filterModel.Params()...)
	if p, ok := r.set.classifier.(Parameterized); ok {
		ps = append(ps, p.Params()...)
	}
	return ps
}

// SaveCheckpoint writes the parameters of the learned stages to a
// versioned, shape-checked checkpoint file (see internal/nn).
func (r *Reconstructor) SaveCheckpoint(path string) error {
	return nn.SaveParamsFile(path, r.params())
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint (v3,
// float64 weights) or SaveCheckpointInt8 (v4, int8 weights, loaded
// dequantized) into a reconstructor with the same hyperparameters (and,
// with WithEdgeClassifier, the same classifier shape); truth-level and
// learned-graph reconstructors read each other's files. Any other file
// is rejected, and a rejected file leaves parameters, inference
// forwards and calibration as they were. A load drops the calibrated
// activation scales — they belong to the previous weights, and a v4
// file's tables are not read — and refreshes the reduced-precision
// forwards from the loaded weights.
func (r *Reconstructor) LoadCheckpoint(path string) error {
	if err := nn.LoadParamsFile(path, r.params()); err != nil {
		return err
	}
	r.i8scales = nil
	r.syncInference()
	return nil
}
