package embed

import (
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Calibrator records the embedder's activation ranges for checkpoint
// v4: feed it the same feature matrices inference will see, then
// export Scales.
type Calibrator struct {
	cal *nn.MLPCalibrator
}

// NewCalibrator builds a calibrator over e's current weights.
func NewCalibrator(e *Embedder) *Calibrator {
	return &Calibrator{cal: nn.NewMLPCalibrator(e.mlp)}
}

// Observe runs the float32 forward on one event's features, recording
// activation ranges, and returns the embedding so downstream stages can
// calibrate on the same pass.
func (c *Calibrator) Observe(kc kernels.Context, arena *workspace.Arena, features *tensor.Matrix[float32]) *tensor.Matrix[float32] {
	return c.cal.Observe(kc, arena, features)
}

// Scales returns the calibrated per-layer activation scales.
func (c *Calibrator) Scales() []float32 { return c.cal.Scales() }
