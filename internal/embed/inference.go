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
	cfg Config
	mlp *nn.MLPInference[T]
}

// NewInference returns e's inference forward at precision T.
func NewInference[T fp.Float](e *Embedder) *Inference[T] {
	return &Inference[T]{cfg: e.cfg, mlp: nn.NewMLPInference[T](e.mlp)}
}

// Config returns the embedder configuration.
func (inf *Inference[T]) Config() Config { return inf.cfg }

// EmbedCtx maps hit features (n × InputFeatures, already in T) into the
// embedding space under the given worker budget. The result is
// arena-owned when arena is non-nil.
func (inf *Inference[T]) EmbedCtx(kc kernels.Context, arena *workspace.Arena, features *tensor.Matrix[T]) *tensor.Matrix[T] {
	return inf.mlp.Forward(kc, arena, tensor.Seg[T]{M: features})
}
