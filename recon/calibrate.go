package recon

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/detector"
	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/ignn"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/workspace"
)

// i8Scales bundles the calibrated activation scales of every learned
// stage — the tables checkpoint v4 persists beside the int8 weights.
type i8Scales struct {
	embed  []float32
	filter []float32
	gnn    ignn.QuantScales
}

// actScales names the stage tables in the form checkpoint v4 stores,
// in export order. The gnn.edge%d / gnn.node%d families are indexed by
// message-passing step. A table with no scales is omitted: the
// aggregation table of a single-step GNN (no aggregations happen), and
// v4 rejects empty tables.
func (s *i8Scales) actScales() []nn.ActScales {
	var act []nn.ActScales
	add := func(name string, scales []float32) {
		if len(scales) > 0 {
			act = append(act, nn.ActScales{Name: name, Scales: scales})
		}
	}
	add("embed", s.embed)
	add("filter", s.filter)
	add("gnn.nodeEnc", s.gnn.NodeEnc)
	add("gnn.edgeEnc", s.gnn.EdgeEnc)
	for l, sc := range s.gnn.EdgeNets {
		add(fmt.Sprintf("gnn.edge%d", l), sc)
	}
	for l, sc := range s.gnn.NodeNets {
		add(fmt.Sprintf("gnn.node%d", l), sc)
	}
	add("gnn.head", s.gnn.Head)
	add("gnn.agg", s.gnn.Agg)
	return act
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

// calibrate runs the activation-range calibration pass over events: the
// serving float32 adapters replay every event over forwards built to
// record their activation ranges (from the float64 weights, at every
// precision). The embedder and GNN are recorded whichever stages serve:
// the embedder on every event, truth-level graphs included, the GNN on
// every non-empty graph. The embedding feeds a float32 radius search
// and the filter is recorded, unless truth-level graphs, which bypass
// both, stand in for them, so the recorded graphs are the ones
// inference will see.
func (r *Reconstructor) calibrate(ctx context.Context, events []*Event) (*i8Scales, error) {
	c := r.newCalibration()
	fw := &forwards[float32]{embed: c.embed, filter: c.filter, gnn: c.gnn}
	emb := mlpEmbedder[float32]{fw: fw}
	gnn := gnnClassifier[float32]{m: r.gnnModel, fw: fw}
	builder, filt := graphStages(r, fw)
	a := workspace.NewArena()
	defer a.Reset()
	kctx := r.kernelCtx(ctx)
	for _, ev := range events {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mark := a.Checkpoint()
		embedded, err := emb.Embed(kctx, a, ev)
		if err != nil {
			return nil, fmt.Errorf("recon: calibration embed: %w", err)
		}
		src, dst, err := builder.BuildEdges(kctx, a, ev, func() (*Matrix, error) { return embedded, nil })
		if err != nil {
			return nil, fmt.Errorf("recon: calibration build edges: %w", err)
		}
		fsrc, fdst, err := filt.FilterEdges(kctx, a, ev, src, dst)
		if err != nil {
			return nil, fmt.Errorf("recon: calibration filter edges: %w", err)
		}
		if len(fsrc) > 0 {
			if _, err := gnn.ScoreEdges(kctx, a, pipeline.AssembleGraph(r.spec, ev, fsrc, fdst)); err != nil {
				return nil, fmt.Errorf("recon: calibration score edges: %w", err)
			}
		}
		a.ResetTo(mark)
	}
	return c.scales(), nil
}

// calibration is the float32 forward of each learned stage model with
// activation range recording on.
type calibration struct {
	embed  *embed.Inference[float32]
	filter *filter.Inference[float32]
	gnn    *ignn.Inference[float32]
}

func (r *Reconstructor) newCalibration() calibration {
	return calibration{embed.NewCalibration(r.embedModel), filter.NewCalibration(r.filterModel), ignn.NewCalibration(r.gnnModel)}
}

func (c calibration) scales() *i8Scales {
	return &i8Scales{embed: c.embed.Scales(), filter: c.filter.Scales(), gnn: c.gnn.Scales()}
}

// Calibrate runs activation-range calibration on the given events and
// keeps the scales for the next SaveCheckpointInt8, which otherwise
// calibrates on the latest Fit's training events (or a synthetic batch).
// Fit and LoadCheckpoint drop kept scales. Serving never reads the
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
