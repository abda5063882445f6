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
// three learned default stages. Construct with New, swap stage variants
// with options, restore trained weights with LoadCheckpoint, and wrap
// in an Engine for concurrency.
//
// A Reconstructor is safe for concurrent use once training is done:
// inference only reads model weights.
type Reconstructor struct {
	spec DetectorSpec
	cfg  pipeline.Config
	set  settings

	embedder   Embedder
	builder    GraphBuilder
	filter     EdgeFilter
	classifier EdgeClassifier
	extractor  TrackExtractor

	// run* are the stages actually invoked per event: the resolved
	// stages above, possibly wrapped by WithStageWrapper middleware
	// (fault injection, tracing). Structural logic — Fit, params,
	// checkpointing, default-stage detection — always sees the
	// unwrapped stages.
	runEmbedder   Embedder
	runBuilder    GraphBuilder
	runFilter     EdgeFilter
	runClassifier EdgeClassifier
	runExtractor  TrackExtractor

	// The models of the learned default stages: what the default
	// adapters run, Fit trains and checkpoints persist. Initialised from
	// rng.New(seed) in this order, so weights repeat per seed.
	embedModel  *embed.Embedder
	filterModel *filter.EdgeFilter
	gnnModel    *ignn.Model

	// low holds the float32 forwards the reduced-precision stage
	// adapters read (nil at Float64, where the adapters run the models'
	// own parameter-aliasing views); syncInference refills it whenever
	// the float64 weights change.
	low *forwards[float32]

	// i8scales holds the calibrated activation scales SaveCheckpointInt8
	// exports (nil until Calibrate, an export or a v4 load sets them, and
	// again whenever the weights move), and calEvents the representative
	// events an export calibrates on (the latest Fit's training events; a
	// synthetic batch when empty). Serving never reads either.
	i8scales  *i8Scales
	calEvents []*Event
}

// New builds a reconstructor with freshly initialized models for the
// given detector spec. Options override hyperparameters and swap stage
// implementations.
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
	if set.radius != nil {
		cfg.Radius = *set.radius
	}
	if set.maxDegree != nil {
		cfg.MaxDegree = *set.maxDegree
	}
	if set.gnnThreshold != nil {
		cfg.GNNThreshold = *set.gnnThreshold
	}
	if set.minTrackHits != nil {
		cfg.MinTrackHits = *set.minTrackHits
	}
	if set.filterThresh != nil {
		cfg.Filter.Threshold = *set.filterThresh
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
	// The one place a precision picks the element type of the default
	// adapters: float64 over the models themselves, float32 over the
	// forwards syncInference fills in.
	if set.precision == Float64 {
		resolveStages(r, &forwards[float64]{embed: r.embedModel, filter: r.filterModel, gnn: r.gnnModel})
	} else {
		r.low = &forwards[float32]{}
		resolveStages(r, r.low)
	}
	r.extractor = set.extractor
	if r.extractor == nil {
		r.extractor = ccExtractor{minTrackHits: cfg.MinTrackHits}
	}
	r.runEmbedder, r.runBuilder, r.runFilter = r.embedder, r.builder, r.filter
	r.runClassifier, r.runExtractor = r.classifier, r.extractor
	if w := set.wrapper; w != nil {
		r.runEmbedder = w.WrapEmbedder(r.embedder)
		r.runBuilder = w.WrapGraphBuilder(r.builder)
		r.runFilter = w.WrapEdgeFilter(r.filter)
		r.runClassifier = w.WrapEdgeClassifier(r.classifier)
		r.runExtractor = w.WrapTrackExtractor(r.extractor)
	}
	r.syncInference()
	return r
}

// resolveStages settles stages 1–4: the option-supplied stage where
// there is one, else the built-in adapter running fw at element type T.
func resolveStages[T fp.Float](r *Reconstructor, fw *forwards[T]) {
	set, cfg := r.set, r.cfg
	r.embedder = set.embedder
	if r.embedder == nil {
		r.embedder = mlpEmbedder[T]{m: r.embedModel, fw: fw}
	}
	r.builder = set.builder
	switch {
	case r.builder != nil:
	case set.truthLevel:
		r.builder = truthBuilder{fakeRatio: set.truthRatio, baseSeed: set.seed}
	case set.embedder != nil:
		// A custom Embedder's output is searched as it is handed over,
		// in float64, at every precision.
		r.builder = radiusBuilder[float64]{radius: cfg.Radius, maxDegree: cfg.MaxDegree}
	default:
		r.builder = radiusBuilder[T]{radius: cfg.Radius, maxDegree: cfg.MaxDegree}
	}
	r.filter = set.filter
	switch {
	case r.filter != nil:
	case set.skipFilter || set.truthLevel:
		// Truth-level graphs bypass the filter, matching
		// pipeline.TruthLevelGraph.
		r.filter = passFilter{}
	default:
		r.filter = mlpFilter[T]{m: r.filterModel, fw: fw, spec: r.spec}
	}
	r.classifier = set.classifier
	if r.classifier == nil {
		r.classifier = gnnClassifier[T]{m: r.gnnModel, fw: fw}
	}
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
	*r.low = forwards[float32]{
		embed:  embed.NewInference[float32](emb),
		filter: filter.NewInference[float32](filt),
		gnn:    ignn.NewInference[float32](gnn),
	}
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

// Precision returns the inference precision of the built-in stages.
func (r *Reconstructor) Precision() Precision { return r.set.precision }

// Spec returns the detector spec the reconstructor was built for.
func (r *Reconstructor) Spec() DetectorSpec { return r.spec }

// Threshold returns the stage-4 decision threshold.
func (r *Reconstructor) Threshold() float64 { return r.cfg.GNNThreshold }

// kernelCtx installs the serial intra-op worker budget on ctx for the
// default stage adapters (see stages.go). Engine workers install their
// own divided budget instead.
func (r *Reconstructor) kernelCtx(ctx context.Context) context.Context {
	return kernels.Into(ctx, kernels.Budget(1, r.set.kernelWorkers))
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
			m, e = r.runEmbedder.Embed(ctx, a, ev)
			return e
		})
		return m, err
	}
	var src, dst []int
	err := guardStage("build", func() error {
		var e error
		src, dst, e = r.runBuilder.BuildEdges(ctx, a, ev, embedThunk)
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("recon: build edges: %w", err)
	}
	var fsrc, fdst []int
	err = guardStage("filter", func() error {
		var e error
		fsrc, fdst, e = r.runFilter.FilterEdges(ctx, a, ev, src, dst)
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
// batches and streams.
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
			scores, e = r.runClassifier.ScoreEdges(ctx, a, eg)
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
		tracks, e = r.runExtractor.ExtractTracks(ctx, eg, keep)
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("recon: extract tracks: %w", err)
	}
	res.Tracks = tracks
	hitParticle := make([]int, eg.Event.NumHits())
	for i, h := range eg.Event.Hits {
		hitParticle[i] = h.Particle
	}
	res.Match = metrics.MatchTracks(res.Tracks, hitParticle,
		eg.Event.TrackHits(r.cfg.MinTrackHits), r.cfg.MinTrackHits)
	return res, nil
}

// Fit trains the trainable stages on the given events: the default
// embedding and filter stages through the staged Exa.TrkX procedure,
// the default GNN stage on graphs built by the configured GraphBuilder,
// and any custom stage implementing Fitter. Custom stages without a
// Fitter are assumed training-free.
//
// The default GNN stage trains full-graph on the trainer
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
	embedDefault, filterDefault := isDefault(r.embedder), isDefault(r.filter)
	// Training is serial: its tapes run under the serial entry points'
	// budget (WithKernelWorkers).
	kc := kernels.From(r.kernelCtx(ctx))
	// The truth-level builder never consumes the embedding, so training
	// the embedder under it would be pure waste; a custom builder might
	// call the embed thunk, so it keeps embedder training.
	_, truthLevel := r.builder.(truthBuilder)
	switch {
	case embedDefault && filterDefault:
		// The staged Exa.TrkX procedure: embedder first, then the filter
		// on radius graphs built in the trained embedding space.
		if err := pipeline.FitStages13(ctx, kc, r.cfg, r.embedModel, r.filterModel, events, r.set.seed+1); err != nil {
			return err
		}
	case embedDefault && !truthLevel:
		// Filter is skipped or custom (custom filters train through the
		// Fitter loop below); the embedder still trains on its own.
		if _, err := r.embedModel.TrainContext(ctx, kc, events, r.set.seed+1); err != nil {
			return err
		}
	case filterDefault:
		return errors.New("recon: the default edge filter trains on the default embedder's radius graphs; with a custom Embedder, supply an EdgeFilter that implements Fitter")
	}
	// The reduced-precision adapters read weight snapshots; refresh them
	// so the graphs built for GNN training below see the freshly trained
	// stages 1–3.
	r.syncInference()
	for _, stage := range []any{r.embedder, r.builder, r.filter, r.classifier, r.extractor} {
		if f, ok := stage.(Fitter); ok {
			if err := f.Fit(ctx, events); err != nil {
				return err
			}
		}
	}
	if isDefault(r.classifier) {
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

// params walks the five stages in order and collects the trainable
// parameters of those that have any: embedder, filter, GNN for the
// default stage layout, which is the checkpoint layout.
func (r *Reconstructor) params() []*Param {
	var ps []*Param
	for _, stage := range []any{r.embedder, r.builder, r.filter, r.classifier, r.extractor} {
		if p, ok := stage.(Parameterized); ok {
			ps = append(ps, p.Params()...)
		}
	}
	return ps
}

// SaveCheckpoint writes the trainable parameters of every stage to a
// versioned, shape-checked checkpoint file (see internal/nn).
func (r *Reconstructor) SaveCheckpoint(path string) error {
	return nn.SaveParamsFile(path, r.params())
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint or
// SaveCheckpointInt8 into a reconstructor with the same stage layout
// and hyperparameters. A file that is rejected — mismatched shapes, or
// v4 activation-scale tables that do not fit the configured model —
// leaves parameters, inference forwards and calibration as they were.
// All checkpoint versions load — v4 (int8 weights, dequantized, plus
// activation scales that a later SaveCheckpointInt8 re-exports), v3
// (dtype-tagged, f64 or f32 payloads), v2, and legacy headerless files
// — and the reduced-precision forwards are refreshed from the loaded
// weights.
func (r *Reconstructor) LoadCheckpoint(path string) error {
	params := r.params()
	// nn validates shapes before it writes any parameter, but the
	// activation tables can only be judged here, after it has: keep the
	// old values to put back if they are rejected.
	old := make([][]float64, len(params))
	for i, p := range params {
		old[i] = append([]float64(nil), p.Value.Data()...)
	}
	act, err := nn.LoadParamsFileExt(path, params)
	if err != nil {
		return err
	}
	// A pre-v4 file carries no calibration; any cached scales belong to
	// the previous weights.
	var sc *i8Scales
	if len(act) > 0 {
		if sc, err = r.i8ScalesFromAct(act); err != nil {
			for i, p := range params {
				copy(p.Value.Data(), old[i])
			}
			return err
		}
	}
	r.i8scales = sc
	r.syncInference()
	return nil
}
