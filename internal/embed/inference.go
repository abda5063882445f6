package embed

import (
	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Inference is the precision-generic, tape-free forward pass of a
// trained Embedder, every per-event kernel running in T. The float64
// instantiation is a view of the embedder's own parameters (see
// nn.MLPInference) — it is what EmbedCtx runs, bitwise identical to the
// MLP's forward on a tape; the float32 instantiation converts the
// weights once at construction and is the reduced-precision serving
// path. Safe for concurrent use while nothing writes the parameters.
type Inference[T fp.Float] struct {
	mlp *nn.MLPInference[T]
}

// NewInference returns e's inference forward at precision T.
func NewInference[T fp.Float](e *Embedder) *Inference[T] {
	return &Inference[T]{mlp: nn.NewMLPInference[T](e.mlp)}
}

// NewCalibration returns e's float32 inference forward with activation
// range recording on (see nn.NewMLPCalibration), for the int8 export's
// Scales. Not safe for concurrent use.
func NewCalibration(e *Embedder) *Inference[float32] {
	return &Inference[float32]{mlp: nn.NewMLPCalibration(e.mlp)}
}

// Scales returns the activation scale of every linear layer's input
// that a NewCalibration instance has recorded (nn.MLPInference.Scales).
func (inf *Inference[T]) Scales() []float32 { return inf.mlp.Scales() }

// EmbedCtx maps hit features (n × InputFeatures, already in T) into the
// embedding space under the given worker budget. The result is
// arena-owned when arena is non-nil.
func (inf *Inference[T]) EmbedCtx(kc kernels.Context, arena *workspace.Arena, features *tensor.Matrix[T]) *tensor.Matrix[T] {
	return inf.mlp.Forward(kc, arena, tensor.Seg[T]{M: features})
}
