package recon

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/ignn"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// i8Scales bundles the calibrated activation scales of every default
// stage — the tables syncInference builds the quantized snapshots from
// and checkpoint v4 persists.
type i8Scales struct {
	embed  []float32
	filter []float32
	gnn    ignn.QuantScales
}

// Activation-scale table names used in v4 checkpoints. The gnn.edge%d /
// gnn.node%d families are indexed by message-passing step.
const (
	actEmbed      = "embed"
	actFilter     = "filter"
	actGNNNodeEnc = "gnn.nodeEnc"
	actGNNEdgeEnc = "gnn.edgeEnc"
	actGNNHead    = "gnn.head"
	actGNNAgg     = "gnn.agg"
)

// actScales flattens the stage tables into the named form checkpoint v4
// stores. The aggregation table is omitted when the GNN has a single
// step (no aggregations happen, and v4 rejects empty tables).
func (s *i8Scales) actScales() []nn.ActScales {
	act := []nn.ActScales{
		{Name: actEmbed, Scales: s.embed},
		{Name: actFilter, Scales: s.filter},
		{Name: actGNNNodeEnc, Scales: s.gnn.NodeEnc},
		{Name: actGNNEdgeEnc, Scales: s.gnn.EdgeEnc},
	}
	for l, sc := range s.gnn.EdgeNets {
		act = append(act, nn.ActScales{Name: fmt.Sprintf("gnn.edge%d", l), Scales: sc})
	}
	for l, sc := range s.gnn.NodeNets {
		act = append(act, nn.ActScales{Name: fmt.Sprintf("gnn.node%d", l), Scales: sc})
	}
	act = append(act, nn.ActScales{Name: actGNNHead, Scales: s.gnn.Head})
	if len(s.gnn.Agg) > 0 {
		act = append(act, nn.ActScales{Name: actGNNAgg, Scales: s.gnn.Agg})
	}
	return act
}

// i8ScalesFromAct rebuilds the stage tables from a v4 checkpoint's
// activation section, validating that every table the configured model
// shape needs is present. Per-layer counts are validated downstream by
// the quantized constructors.
func i8ScalesFromAct(act []nn.ActScales, steps int) (*i8Scales, error) {
	byName := make(map[string][]float32, len(act))
	for _, a := range act {
		byName[a.Name] = a.Scales
	}
	get := func(name string) ([]float32, error) {
		sc, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("recon: checkpoint is missing activation-scale table %q", name)
		}
		return sc, nil
	}
	s := &i8Scales{}
	var err error
	if s.embed, err = get(actEmbed); err != nil {
		return nil, err
	}
	if s.filter, err = get(actFilter); err != nil {
		return nil, err
	}
	if s.gnn.NodeEnc, err = get(actGNNNodeEnc); err != nil {
		return nil, err
	}
	if s.gnn.EdgeEnc, err = get(actGNNEdgeEnc); err != nil {
		return nil, err
	}
	if s.gnn.Head, err = get(actGNNHead); err != nil {
		return nil, err
	}
	for l := 0; l < steps; l++ {
		sc, err := get(fmt.Sprintf("gnn.edge%d", l))
		if err != nil {
			return nil, err
		}
		s.gnn.EdgeNets = append(s.gnn.EdgeNets, sc)
	}
	for l := 0; l < steps-1; l++ {
		sc, err := get(fmt.Sprintf("gnn.node%d", l))
		if err != nil {
			return nil, err
		}
		s.gnn.NodeNets = append(s.gnn.NodeNets, sc)
	}
	if steps > 1 {
		if s.gnn.Agg, err = get(actGNNAgg); err != nil {
			return nil, err
		}
		if len(s.gnn.Agg) != steps-1 {
			return nil, fmt.Errorf("recon: checkpoint has %d aggregation scales for %d GNN steps", len(s.gnn.Agg), steps)
		}
	}
	return s, nil
}

// calibrationEvents returns the representative events the automatic
// calibration pass runs over: the most recent Fit's training events
// when available, else a small deterministic synthetic batch drawn from
// the detector spec — so an untrained Int8 reconstructor (CI smoke
// serving, pre-checkpoint construction) always has valid scales.
func (r *Reconstructor) calibrationEvents() []*Event {
	if len(r.calEvents) > 0 {
		return r.calEvents
	}
	rr := rng.New(uint64(r.set.seed) ^ 0x1BADCA1)
	evs := make([]*Event, 2)
	for i := range evs {
		evs[i] = detector.GenerateEvent(r.spec, rr.Split())
	}
	return evs
}

// calibrate runs the activation-range calibration pass over events:
// the float32 forward of every default stage replays with observers
// recording per-linear-layer input ranges (plus the GNN's aggregation
// ranges), while non-default stages — truth-level or custom builders
// and filters — run as themselves so the observed graph distribution
// matches what int8 inference will actually see.
func (r *Reconstructor) calibrate(ctx context.Context, events []*Event) (*i8Scales, error) {
	embCal := embed.NewCalibrator(r.embedModel)
	filtCal := filter.NewCalibrator(r.filterModel)
	gnnCal := ignn.NewCalibrator(r.gnnModel)
	a := workspace.NewArena()
	defer a.Reset()
	kctx := r.kernelCtx(ctx)
	kc := kernels.From(kctx)
	// The built-in stages are the ones the int8 snapshot will replace,
	// whichever precision's adapter stands for them here (an Int8
	// export from a Float64 reconstructor included), so each replays
	// through its observer. The radius search runs on the observed
	// embedding only when the default embedder produced it: with a
	// custom Embedder the radius builder runs as itself on that
	// embedder's output.
	embedObserved := isDefault(r.embedder)
	searchObserved := embedObserved && isDefault(r.builder)
	filterObserved := isDefault(r.filter)
	for _, ev := range events {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mark := a.Checkpoint()
		feat := tensor.ConvertFrom[float32](a, ev.Features)
		emb := embCal.Observe(kc, a, feat)

		var src, dst []int
		var err error
		if searchObserved {
			src, dst = knnsearch.BuildRadiusGraphCtx(kc, emb, r.cfg.Radius, r.cfg.MaxDegree)
		} else {
			thunk := func() (*Matrix, error) {
				if embedObserved {
					return tensor.ConvertFrom[float64](nil, emb), nil
				}
				return r.embedder.Embed(kctx, a, ev)
			}
			if src, dst, err = r.builder.BuildEdges(kctx, a, ev, thunk); err != nil {
				return nil, fmt.Errorf("recon: calibration build edges: %w", err)
			}
		}

		var fsrc, fdst []int
		if filterObserved {
			if len(src) > 0 {
				edgeFeat := detector.EdgeFeaturesWith(a, r.spec, ev, src, dst)
				scores := filtCal.Observe(kc, a, feat, tensor.ConvertFrom[float32](a, edgeFeat), src, dst)
				for k, s := range scores {
					if s >= filtCal.Threshold() {
						fsrc = append(fsrc, src[k])
						fdst = append(fdst, dst[k])
					}
				}
			}
		} else if fsrc, fdst, err = r.filter.FilterEdges(kctx, a, ev, src, dst); err != nil {
			return nil, fmt.Errorf("recon: calibration filter edges: %w", err)
		}

		if len(fsrc) > 0 {
			eg := pipeline.AssembleGraph(r.spec, ev, fsrc, fdst)
			x := tensor.ConvertFrom[float32](a, eg.X)
			y := tensor.ConvertFrom[float32](a, eg.Y)
			gnnCal.Observe(kc, a, eg.G.Src, eg.G.Dst, x, y)
		}
		a.ResetTo(mark)
	}
	return &i8Scales{embed: embCal.Scales(), filter: filtCal.Scales(), gnn: gnnCal.Scales()}, nil
}

// Calibrate re-runs int8 activation-range calibration on the given
// events and rebuilds the quantized inference snapshots from the fresh
// scales. Fit and LoadCheckpoint (v4) manage calibration automatically;
// call this to recalibrate on a different representative sample. Like
// Fit, it must not race concurrent inference. At Float64/Float32 the
// scales are recorded but unused until the precision changes.
func (r *Reconstructor) Calibrate(ctx context.Context, events []*Event) error {
	if len(events) == 0 {
		return errors.New("recon: Calibrate needs at least one event")
	}
	sc, err := r.calibrate(ctx, events)
	if err != nil {
		return err
	}
	r.calEvents = events
	r.i8scales = sc
	return r.syncInference()
}

// SaveCheckpointInt8 writes a v4 quantized checkpoint: int8 weights
// with per-output-column scales plus the calibrated activation-scale
// tables (calibrating first if no calibration has run yet), so the file
// serves at Int8 on load without recalibration. Works at any precision
// — a float64-trained reconstructor can export its int8 artifact
// directly.
func (r *Reconstructor) SaveCheckpointInt8(path string) error {
	sc := r.i8scales
	if sc == nil {
		var err error
		if sc, err = r.calibrate(context.Background(), r.calibrationEvents()); err != nil {
			return err
		}
		r.i8scales = sc
	}
	return nn.SaveParamsFileInt8(path, r.params(), sc.actScales())
}
