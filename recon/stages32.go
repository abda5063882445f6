package recon

import (
	"context"

	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/internal/knnsearch"
	"repro/internal/tensor"
)

// The reduced-precision stage adapters mirror the default adapters in
// stages.go with float32 activations: event features and edge features
// (float64 at the detector boundary) convert to f32 once per event from
// the worker's arena, and the stage forwards run on the snapshot
// syncInference built from the trained weights — float32 copies at
// Float32, int8 quantized weights driving the fused int8 kernels at
// Int8. Scores and thresholds stay float64, so the decision logic and
// the track extractor are shared with the f64 path unchanged.
//
// Each adapter reads the current snapshot through the Reconstructor so
// that Fit and LoadCheckpoint — which rebuild the snapshot — take
// effect without rewiring the stages.

// features32 converts an event's hit features into the arena.
func features32(a *Arena, ev *Event) *tensor.Dense32 {
	return tensor.ConvertFrom[float32](a, ev.Features)
}

// mlpEmbedder32 adapts the stage-1 MLP at reduced precision. The stage
// interface returns a float64 matrix, so the embedding widens (exactly)
// on the way out — only custom graph builders consume it; the default
// reduced-precision radius builder embeds internally and skips the
// widening.
type mlpEmbedder32 struct{ r *Reconstructor }

func (e mlpEmbedder32) Embed(ctx context.Context, a *Arena, ev *Event) (*Matrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mark := a.Checkpoint()
	kc := kernels.From(ctx)
	emb := e.r.low.embed.EmbedCtx(kc, a, features32(a, ev))
	out := tensor.ConvertFrom[float64](nil, emb)
	a.ResetTo(mark)
	return out, nil
}

func (e mlpEmbedder32) Params() []*Param { return e.r.p.Embedder.Params() }

// radiusBuilder32 is stage 2 at reduced precision: embed the hits with
// the snapshot MLP and answer the fixed-radius queries on the f32
// embedding it emits directly (half the bytes per visited k-d node).
type radiusBuilder32 struct {
	r         *Reconstructor
	radius    float64
	maxDegree int
}

func (b radiusBuilder32) BuildEdges(ctx context.Context, a *Arena, ev *Event, _ func() (*Matrix, error)) (src, dst []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	mark := a.Checkpoint()
	defer a.ResetTo(mark)
	kc := kernels.From(ctx)
	emb := b.r.low.embed.EmbedCtx(kc, a, features32(a, ev))
	src, dst = knnsearch.BuildRadiusGraphCtx(kc, emb, b.radius, b.maxDegree)
	return src, dst, nil
}

// mlpFilter32 adapts the stage-3 edge-filter MLP at reduced precision.
type mlpFilter32 struct {
	r    *Reconstructor
	spec DetectorSpec
}

func (f mlpFilter32) FilterEdges(ctx context.Context, a *Arena, ev *Event, src, dst []int) (fsrc, fdst []int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if len(src) == 0 {
		return nil, nil, nil
	}
	mark := a.Checkpoint()
	edgeFeat := detector.EdgeFeaturesWith(a, f.spec, ev, src, dst)
	kc := kernels.From(ctx)
	keep := f.r.low.filter.KeepCtx(kc, a, features32(a, ev), tensor.ConvertFrom[float32](a, edgeFeat), src, dst)
	a.ResetTo(mark)
	for k := range src {
		if keep[k] {
			fsrc = append(fsrc, src[k])
			fdst = append(fdst, dst[k])
		}
	}
	return fsrc, fdst, nil
}

func (f mlpFilter32) Params() []*Param { return f.r.p.Filter.Params() }

// gnnClassifier32 adapts the stage-4 Interaction GNN at reduced
// precision.
type gnnClassifier32 struct{ r *Reconstructor }

func (c gnnClassifier32) ScoreEdges(ctx context.Context, a *Arena, eg *EventGraph) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mark := a.Checkpoint()
	defer a.ResetTo(mark)
	x := tensor.ConvertFrom[float32](a, eg.X)
	y := tensor.ConvertFrom[float32](a, eg.Y)
	return c.r.low.gnn.EdgeScoresCtx(kernels.From(ctx), a, eg.G.Src, eg.G.Dst, x, y), nil
}

func (c gnnClassifier32) Params() []*Param { return c.r.p.GNN.Params() }
