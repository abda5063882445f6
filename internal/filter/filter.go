// Package filter implements stage 3 of the Exa.TrkX pipeline: a cheap
// edge-classifier MLP that prunes the radius graph before the memory-
// intensive GNN stage ("Shrink Graph to GPU size" in Figure 1 of the
// paper). Edges scored below the threshold are removed.
//
// The cut is set from recall: the default threshold is the highest
// that still keeps 99.5% of the true candidate edges on held-out events
// at the benchmark's serving and graph-building scales, once the filter
// has trained long enough for its scores to separate true candidates
// from fake ones. A true edge the filter drops is lost to every later
// stage, while a fake one it keeps costs the GNN only time.
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

// DefaultConfig returns a laptop-scale configuration. Epochs and LR
// train the filter until its scores separate, and Threshold is the cut
// that keeps ≥ 99.5% of true candidates while passing about half of all
// candidates to the GNN (PERF.md "A stage 3 that prunes" has the sweep
// these come from).
func DefaultConfig(nodeFeatures, edgeFeatures, mlpLayers int) Config {
	return Config{
		NodeFeatures: nodeFeatures,
		EdgeFeatures: edgeFeatures,
		Hidden:       32,
		HiddenLayers: mlpLayers,
		LR:           2e-3,
		Epochs:       48,
		PosWeight:    2.0,
		Threshold:    0.25,
	}
}

// EdgeFilter is the trained stage-3 model.
type EdgeFilter struct {
	cfg Config
	mlp *nn.MLP
}

// New creates an untrained filter.
func New(cfg Config, r *rng.Rand) *EdgeFilter {
	hidden := make([]int, cfg.HiddenLayers)
	for i := range hidden {
		hidden[i] = cfg.Hidden
	}
	return &EdgeFilter{
		cfg: cfg,
		mlp: nn.NewMLP(r, "filter", nn.MLPConfig{
			In:     2*cfg.NodeFeatures + cfg.EdgeFeatures,
			Hidden: hidden,
			Out:    1,
		}),
	}
}

// Params exposes the trainable parameters.
func (f *EdgeFilter) Params() []*autograd.Param { return f.mlp.Params() }

// forward builds the logits node for edges (src, dst). The MLP's first
// layer reads [X[src] ‖ X[dst] ‖ E] as three segments, so neither the
// gathers nor the concatenation is built.
func (f *EdgeFilter) forward(t *autograd.Tape, nodeFeat, edgeFeat *tensor.Dense, src, dst []int) *autograd.Node {
	nodes := t.Constant(nodeFeat)
	return f.mlp.ForwardSegs(t,
		autograd.Seg{N: nodes, Idx: src}, autograd.Seg{N: nodes, Idx: dst}, autograd.Seg{N: t.Constant(edgeFeat)})
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
