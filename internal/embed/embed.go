// Package embed implements stage 1 of the Exa.TrkX pipeline: a metric-
// learning MLP that maps per-hit features into an embedding space where
// hits belonging to the same particle track land close together. Stage 2
// then builds a fixed-radius nearest-neighbor graph in that space.
package embed

import (
	"context"

	"repro/internal/autograd"
	"repro/internal/detector"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/workspace"
)

// Config controls the embedding model and its training.
type Config struct {
	InputFeatures int     // per-hit feature width
	Hidden        int     // hidden width of the MLP
	HiddenLayers  int     // hidden layer count (Table I "MLP Layers")
	EmbedDim      int     // output embedding dimension
	Margin        float64 // hinge margin for negative pairs
	LR            float64
	Epochs        int
	NegativeRatio float64 // negative pairs sampled per positive pair
}

// DefaultConfig returns a laptop-scale configuration for the given spec.
func DefaultConfig(spec detector.Spec) Config {
	return Config{
		InputFeatures: spec.VertexFeatures,
		Hidden:        32,
		HiddenLayers:  spec.MLPLayers,
		EmbedDim:      4,
		Margin:        1.0,
		LR:            1e-3,
		Epochs:        30,
		NegativeRatio: 2.0,
	}
}

// Embedder is the trained stage-1 model.
type Embedder struct {
	cfg Config
	mlp *nn.MLP
}

// New creates an untrained embedder.
func New(cfg Config, r *rng.Rand) *Embedder {
	hidden := make([]int, cfg.HiddenLayers)
	for i := range hidden {
		hidden[i] = cfg.Hidden
	}
	return &Embedder{
		cfg: cfg,
		mlp: nn.NewMLP(r, "embed", nn.MLPConfig{
			In:     cfg.InputFeatures,
			Hidden: hidden,
			Out:    cfg.EmbedDim,
		}),
	}
}

// Params exposes the trainable parameters.
func (e *Embedder) Params() []*autograd.Param { return e.mlp.Params() }

// pairBatch holds a training batch of hit index pairs with labels.
type pairBatch struct {
	a, b   []int
	labels []float64
}

// buildPairs assembles positive pairs from truth edges and random
// negatives at the configured ratio.
func buildPairs(ev *detector.Event, ratio float64, r *rng.Rand) pairBatch {
	var pb pairBatch
	for k := range ev.TruthSrc {
		pb.a = append(pb.a, ev.TruthSrc[k])
		pb.b = append(pb.b, ev.TruthDst[k])
		pb.labels = append(pb.labels, 1)
	}
	n := ev.NumHits()
	nNeg := int(float64(len(ev.TruthSrc)) * ratio)
	for i := 0; i < nNeg; i++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b || ev.IsTruthEdge(a, b) {
			continue
		}
		pb.a = append(pb.a, a)
		pb.b = append(pb.b, b)
		pb.labels = append(pb.labels, 0)
	}
	return pb
}

// TrainStepWith runs one optimization step on one event and returns the
// loss, the tape kernels running under kc and the forward/backward
// activations borrowed from the given arena (checkpointed around the
// step, so the caller's other allocations survive). A nil arena uses a
// private one.
func (e *Embedder) TrainStepWith(kc kernels.Context, arena *workspace.Arena, ev *detector.Event, opt nn.Optimizer, r *rng.Rand) float64 {
	pb := buildPairs(ev, e.cfg.NegativeRatio, r)
	if len(pb.a) == 0 {
		return 0
	}
	if arena == nil {
		arena = workspace.NewArena()
		defer arena.Reset()
	} else {
		mark := arena.Checkpoint()
		defer arena.ResetTo(mark)
	}
	t := autograd.NewTapeArena(arena)
	t.SetKernels(kc)
	emb := e.mlp.ForwardSegs(t, autograd.Seg{N: t.Constant(ev.Features)})
	ea := t.GatherRows(emb, pb.a)
	eb := t.GatherRows(emb, pb.b)
	diff := t.Sub(ea, eb)
	d2 := t.RowSums(t.Mul(diff, diff))
	loss := t.HingePairLoss(d2, pb.labels, e.cfg.Margin)
	t.Backward(loss)
	opt.Step(e.mlp.Params())
	return loss.Value.At(0, 0)
}

// TrainContext fits the embedder on the training events for cfg.Epochs
// passes under the worker budget kc, with cooperative cancellation
// between epochs and one arena threaded through every step, so epoch
// loops recycle warm activation buffers. Returns the last completed
// epoch's mean loss alongside ctx.Err() when cancelled.
func (e *Embedder) TrainContext(ctx context.Context, kc kernels.Context, events []*detector.Event, seed uint64) (float64, error) {
	r := rng.New(seed)
	opt := nn.NewAdam(e.cfg.LR)
	arena := workspace.NewArena()
	defer arena.Reset()
	last := 0.0
	for epoch := 0; epoch < e.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		sum := 0.0
		for _, ev := range events {
			sum += e.TrainStepWith(kc, arena, ev, opt, r)
		}
		if len(events) > 0 {
			last = sum / float64(len(events))
		}
	}
	return last, nil
}
