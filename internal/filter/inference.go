package filter

import (
	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Inference is the precision-generic, tape-free stage-3 forward pass:
// per-event scoring runs the MLP entirely in T, its first layer reading
// [X[src] ‖ X[dst] ‖ EdgeFeat] as GEMM segments, so the gathered input
// is never built. Scores and the keep threshold stay float64 — the
// precision boundary sits at the logit. The float64 instantiation is a
// view of the filter's own parameters (see nn.MLPInference), so
// training and checkpoint loads reach it without a refresh, and its
// scores are bitwise those of the tape forward; the float32
// instantiation converts the weights once at construction. Safe for
// concurrent use while nothing writes the parameters.
type Inference[T fp.Float] struct {
	cfg Config
	mlp *nn.MLPInference[T]
}

// NewInference returns f's inference forward at precision T.
func NewInference[T fp.Float](f *EdgeFilter) *Inference[T] {
	return &Inference[T]{cfg: f.cfg, mlp: nn.NewMLPInference[T](f.mlp)}
}

// NewCalibration returns f's float32 inference forward with activation
// range recording on (see nn.NewMLPCalibration), for the int8 export's
// Scales. Not safe for concurrent use.
func NewCalibration(f *EdgeFilter) *Inference[float32] {
	return &Inference[float32]{cfg: f.cfg, mlp: nn.NewMLPCalibration(f.mlp)}
}

// Scales returns the activation scale of every linear layer's input
// that a NewCalibration instance has recorded (nn.MLPInference.Scales).
func (inf *Inference[T]) Scales() []float32 { return inf.mlp.Scales() }

// ScoresCtx returns the sigmoid score per edge (src, dst) under an
// explicit intra-op worker budget, with all activations borrowed from
// the arena (released before returning; a nil arena falls back to the
// heap). Scores are bitwise identical at every budget.
func (inf *Inference[T]) ScoresCtx(kc kernels.Context, arena *workspace.Arena, nodeFeat, edgeFeat *tensor.Matrix[T], src, dst []int) []float64 {
	if len(src) == 0 {
		// No edges, no scores — and a nil src could not say "gathered".
		return []float64{}
	}
	if arena != nil {
		mark := arena.Checkpoint()
		defer arena.ResetTo(mark)
	}
	logits := inf.mlp.Forward(kc, arena,
		tensor.Seg[T]{M: nodeFeat, Idx: src}, tensor.Seg[T]{M: nodeFeat, Idx: dst}, tensor.Seg[T]{M: edgeFeat})
	scores := make([]float64, len(src))
	for i := range scores {
		scores[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return scores
}

// KeepCtx returns the boolean keep mask at the configured threshold.
func (inf *Inference[T]) KeepCtx(kc kernels.Context, arena *workspace.Arena, nodeFeat, edgeFeat *tensor.Matrix[T], src, dst []int) []bool {
	scores := inf.ScoresCtx(kc, arena, nodeFeat, edgeFeat, src, dst)
	keep := make([]bool, len(scores))
	for i, s := range scores {
		keep[i] = s >= inf.cfg.Threshold
	}
	return keep
}
