// Package filter implements stage 3 of the Exa.TrkX pipeline: a cheap
// edge-classifier MLP that prunes the radius graph before the memory-
// intensive GNN stage ("Shrink Graph to GPU size" in Figure 1 of the
// paper). Edges scored below the threshold are removed.
package filter

import (
	"repro/internal/autograd"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Config controls the filter model and training.
type Config struct {
	NodeFeatures int
	EdgeFeatures int
	Hidden       int
	HiddenLayers int
	LR           float64
	Epochs       int
	PosWeight    float64 // reweighting for the rare positive class
	Threshold    float64 // keep edges with sigmoid(logit) ≥ Threshold
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig(nodeFeatures, edgeFeatures, mlpLayers int) Config {
	return Config{
		NodeFeatures: nodeFeatures,
		EdgeFeatures: edgeFeatures,
		Hidden:       32,
		HiddenLayers: mlpLayers,
		LR:           1e-3,
		Epochs:       12,
		PosWeight:    2.0,
		Threshold:    0.1, // permissive: stage 3 favors recall, the GNN decides
	}
}

// EdgeFilter is the trained stage-3 model.
type EdgeFilter struct {
	cfg Config
	mlp *nn.MLP
	inf *Inference[float64] // tape-free forward over mlp's own parameters
}

// New creates an untrained filter.
func New(cfg Config, r *rng.Rand) *EdgeFilter {
	hidden := make([]int, cfg.HiddenLayers)
	for i := range hidden {
		hidden[i] = cfg.Hidden
	}
	f := &EdgeFilter{
		cfg: cfg,
		mlp: nn.NewMLP(r, "filter", nn.MLPConfig{
			In:         2*cfg.NodeFeatures + cfg.EdgeFeatures,
			Hidden:     hidden,
			Out:        1,
			Activation: nn.ReLU,
		}),
	}
	f.inf = NewInference[float64](f)
	return f
}

// Params exposes the trainable parameters.
func (f *EdgeFilter) Params() []*autograd.Param { return f.mlp.Params() }

// Threshold returns the keep threshold on the sigmoid score.
func (f *EdgeFilter) Threshold() float64 { return f.cfg.Threshold }

// forward builds the logits node for edges (src, dst) with one fused
// gather+concat pass assembling [X[src] ‖ X[dst] ‖ E].
func (f *EdgeFilter) forward(t *autograd.Tape, nodeFeat, edgeFeat *tensor.Dense, src, dst []int) *autograd.Node {
	nodes := t.Constant(nodeFeat)
	in := t.GatherConcat3(nodes, src, nodes, dst, t.Constant(edgeFeat), nil)
	return f.mlp.Forward(t, in)
}

// ScoresCtx returns the sigmoid score per edge under an explicit
// intra-op worker budget, with forward-pass activations borrowed from
// the arena's workspace pools (released before returning; a nil arena
// falls back to the heap). Scores are bitwise identical at every
// budget, and bitwise those of the training forward on a tape. It runs
// the tape-free Inference[float64] view of the parameters.
func (f *EdgeFilter) ScoresCtx(kc kernels.Context, arena *workspace.Arena, nodeFeat, edgeFeat *tensor.Dense, src, dst []int) []float64 {
	return f.inf.ScoresCtx(kc, arena, nodeFeat, edgeFeat, src, dst)
}

// KeepCtx returns the boolean keep mask at the configured threshold.
func (f *EdgeFilter) KeepCtx(kc kernels.Context, arena *workspace.Arena, nodeFeat, edgeFeat *tensor.Dense, src, dst []int) []bool {
	return f.inf.KeepCtx(kc, arena, nodeFeat, edgeFeat, src, dst)
}

// TrainStepWith runs one optimization step on one graph's edges, the
// tape kernels running under kc and the forward/backward activations
// borrowed from the given arena (checkpointed around the step). A nil
// arena uses a private one.
func (f *EdgeFilter) TrainStepWith(kc kernels.Context, arena *workspace.Arena, nodeFeat, edgeFeat *tensor.Dense, src, dst []int, labels []float64, opt nn.Optimizer) float64 {
	if len(src) == 0 {
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
	logits := f.forward(t, nodeFeat, edgeFeat, src, dst)
	loss := t.BCEWithLogits(logits, labels, f.cfg.PosWeight)
	t.Backward(loss)
	opt.Step(f.mlp.Params())
	return loss.Value.At(0, 0)
}
