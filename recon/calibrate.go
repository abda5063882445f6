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
// stage — the tables checkpoint v4 persists beside the int8 weights.
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

// actTable is one stage table under its v4 name, held by pointer so
// the import fills the same list the export reads.
type actTable struct {
	name   string
	scales *[]float32
}

// tables lists every stage table in export order.
func (s *i8Scales) tables() []actTable {
	ts := []actTable{
		{actEmbed, &s.embed},
		{actFilter, &s.filter},
		{actGNNNodeEnc, &s.gnn.NodeEnc},
		{actGNNEdgeEnc, &s.gnn.EdgeEnc},
	}
	for l := range s.gnn.EdgeNets {
		ts = append(ts, actTable{fmt.Sprintf("gnn.edge%d", l), &s.gnn.EdgeNets[l]})
	}
	for l := range s.gnn.NodeNets {
		ts = append(ts, actTable{fmt.Sprintf("gnn.node%d", l), &s.gnn.NodeNets[l]})
	}
	return append(ts, actTable{actGNNHead, &s.gnn.Head}, actTable{actGNNAgg, &s.gnn.Agg})
}

// actScales flattens the stage tables into the named form checkpoint v4
// stores. The aggregation table is omitted when the GNN has a single
// step (no aggregations happen, and v4 rejects empty tables).
func (s *i8Scales) actScales() []nn.ActScales {
	var act []nn.ActScales
	for _, t := range s.tables() {
		if len(*t.scales) > 0 {
			act = append(act, nn.ActScales{Name: t.name, Scales: *t.scales})
		}
	}
	return act
}

// i8ScalesFromAct rebuilds the stage tables from a v4 checkpoint's
// activation section, validating that every table the configured model
// shape needs is present with one scale per layer (per aggregation for
// gnn.agg). Tables the model has no use for are ignored.
func (r *Reconstructor) i8ScalesFromAct(act []nn.ActScales) (*i8Scales, error) {
	byName := make(map[string][]float32, len(act))
	for _, a := range act {
		byName[a.Name] = a.Scales
	}
	// The calibrators' unobserved tables have the model's shape.
	s := r.newCalibration().scales()
	for _, t := range s.tables() {
		want := len(*t.scales)
		if want == 0 {
			continue
		}
		sc, ok := byName[t.name]
		if !ok {
			return nil, fmt.Errorf("recon: checkpoint is missing activation-scale table %q", t.name)
		}
		if len(sc) != want {
			return nil, fmt.Errorf("recon: checkpoint activation-scale table %q has %d scales, the model needs %d", t.name, len(sc), want)
		}
		*t.scales = sc
	}
	return s, nil
}

// calibrationEvents returns the representative events an export with
// no cached scales calibrates on: the most recent Fit's training events
// when available, else a small deterministic synthetic batch drawn from
// the detector spec — so SaveCheckpointInt8 works on any reconstructor,
// untrained or checkpoint-loaded.
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
// matches what inference will actually see.
func (r *Reconstructor) calibrate(ctx context.Context, events []*Event) (*i8Scales, error) {
	c := r.newCalibration()
	embCal, filtCal, gnnCal := c.embed, c.filter, c.gnn
	a := workspace.NewArena()
	defer a.Reset()
	kctx := r.kernelCtx(ctx)
	kc := kernels.From(kctx)
	// The built-in stages are the ones whose tables the export carries,
	// whichever precision's adapter stands for them here, so each
	// replays through its observer. The radius search runs on the
	// observed embedding only when the default embedder produced it:
	// with a custom Embedder the radius builder runs as itself on that
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
	return c.scales(), nil
}

// calibration is one observer per default stage model.
type calibration struct {
	embed  *embed.Calibrator
	filter *filter.Calibrator
	gnn    *ignn.Calibrator
}

func (r *Reconstructor) newCalibration() calibration {
	return calibration{embed.NewCalibrator(r.embedModel), filter.NewCalibrator(r.filterModel), ignn.NewCalibrator(r.gnnModel)}
}

func (c calibration) scales() *i8Scales {
	return &i8Scales{embed: c.embed.Scales(), filter: c.filter.Scales(), gnn: c.gnn.Scales()}
}

// Calibrate runs activation-range calibration on the given events and
// keeps the scales for the next SaveCheckpointInt8, which otherwise
// calibrates on the latest Fit's training events (or a synthetic batch)
// and a v4 load adopts the file's tables. Serving never reads the
// scales — Int8 runs float32 kernels over dequantized weights — so
// Calibrate does not change what Reconstruct returns, at any precision.
// It must not race concurrent use of the scales (an export).
func (r *Reconstructor) Calibrate(ctx context.Context, events []*Event) error {
	if len(events) == 0 {
		return errors.New("recon: Calibrate needs at least one event")
	}
	sc, err := r.calibrate(ctx, events)
	if err != nil {
		return err
	}
	r.calEvents, r.i8scales = events, sc
	return nil
}

// SaveCheckpointInt8 writes a v4 quantized checkpoint: int8 weights
// with per-output-column scales plus the calibrated activation-scale
// tables (calibrating first if no calibration has run yet). Loaded at
// Int8, the file serves exactly what this reconstructor serves at Int8.
// Works at any precision — a float64-trained reconstructor can export
// its int8 artifact directly.
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
