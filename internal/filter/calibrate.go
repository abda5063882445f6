package filter

import (
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Calibrator records the filter's activation ranges for checkpoint v4.
// Feed Observe the same (nodeFeat, edgeFeat, src, dst) tuples
// inference will see.
type Calibrator struct {
	f   *EdgeFilter
	cal *nn.MLPCalibrator
}

// NewCalibrator builds a calibrator over f's current weights.
func NewCalibrator(f *EdgeFilter) *Calibrator {
	return &Calibrator{f: f, cal: nn.NewMLPCalibrator(f.mlp)}
}

// Threshold returns the keep threshold of the filter being calibrated.
func (c *Calibrator) Threshold() float64 { return c.f.cfg.Threshold }

// Observe runs the float32 scoring forward on one event's graph,
// recording activation ranges, and returns the per-edge scores.
func (c *Calibrator) Observe(kc kernels.Context, arena *workspace.Arena, nodeFeat, edgeFeat *tensor.Matrix[float32], src, dst []int) []float64 {
	if arena != nil {
		mark := arena.Checkpoint()
		defer arena.ResetTo(mark)
	}
	in := tensor.NewFromOf[float32](arena, len(src), 2*nodeFeat.Cols()+edgeFeat.Cols())
	tensor.GatherConcat3IntoCtx(kc, in, nodeFeat, src, nodeFeat, dst, edgeFeat, nil)
	logits := c.cal.Observe(kc, arena, in)
	scores := make([]float64, len(src))
	for i := range scores {
		scores[i] = nn.SigmoidScore(logits.At(i, 0))
	}
	return scores
}

// Scales returns the calibrated per-layer activation scales.
func (c *Calibrator) Scales() []float32 { return c.cal.Scales() }
