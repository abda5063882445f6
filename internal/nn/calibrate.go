package nn

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// MLPCalibrator records the per-layer activation ranges checkpoint v4
// exports beside the int8 weights: it runs the float32 inference
// forward over representative inputs and tracks the max absolute value
// entering each linear layer. Observe as many inputs as are
// representative, then read Scales. Not goroutine-safe — calibration is
// a single-threaded export-time pass.
type MLPCalibrator struct {
	mlp    *MLP
	inf    *MLPInference[float32]
	maxAbs []float64
}

// NewMLPCalibrator builds a calibrator over m's current weights.
func NewMLPCalibrator(m *MLP) *MLPCalibrator {
	return &MLPCalibrator{
		mlp:    m,
		inf:    NewMLPInference[float32](m),
		maxAbs: make([]float64, len(m.layers)),
	}
}

// Observe runs the float32 forward on x, recording the range entering
// every linear layer, and returns the output so calibration passes can
// keep flowing through a multi-stage pipeline. Activations borrow from
// the arena exactly as MLPInference.Forward does.
func (c *MLPCalibrator) Observe(kc kernels.Context, a *workspace.Arena, x *tensor.Matrix[float32]) *tensor.Matrix[float32] {
	mi := c.inf
	h := x
	last := len(mi.w) - 1
	c.observe(0, h)
	for i := 0; i < last; i++ {
		z := tensor.NewFromOf[float32](a, h.Rows(), mi.w[i].Cols())
		tensor.MatMulIntoCtx(kc, z, h, mi.w[i])
		if mi.cfg.Activation == ReLU {
			tensor.AddBiasReLUIntoCtx(kc, z, z, mi.b[i])
		} else {
			tensor.AddBiasIntoCtx(kc, z, z, mi.b[i])
			applyActivation(mi.cfg.Activation, z)
		}
		if mi.cfg.LayerNorm {
			layerNormInto(z, mi.gain[i], mi.shift[i], 1e-5)
		}
		h = z
		c.observe(i+1, h)
	}
	out := tensor.NewFromOf[float32](a, h.Rows(), mi.w[last].Cols())
	tensor.MatMulIntoCtx(kc, out, h, mi.w[last])
	tensor.AddBiasIntoCtx(kc, out, out, mi.b[last])
	return out
}

func (c *MLPCalibrator) observe(layer int, m *tensor.Matrix[float32]) {
	worst := c.maxAbs[layer]
	for _, v := range m.Data() {
		if a := math.Abs(float64(v)); a > worst {
			worst = a
		}
	}
	c.maxAbs[layer] = worst
}

// Scales converts the observed ranges to symmetric scales (maxabs/127;
// 1 for a layer that never saw a nonzero input).
func (c *MLPCalibrator) Scales() []float32 {
	scales := make([]float32, len(c.maxAbs))
	for i, m := range c.maxAbs {
		if m == 0 {
			scales[i] = 1
			continue
		}
		scales[i] = float32(m / 127)
	}
	return scales
}
