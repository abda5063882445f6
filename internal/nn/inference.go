package nn

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// MLPInference is a precision-generic, tape-free forward pass over an
// MLP's trained weights. Forward runs entirely in T with no autograd
// bookkeeping — the serving path of the paper's pipeline, where float32
// halves the bytes every GEMM moves. Each linear layer is one GEMM
// with the bias (and ReLU) applied in its epilogue, and the first layer
// reads its input as column segments, so a concatenated or gathered
// input is never built.
//
// For T = float64 the weights alias the parameters' own storage: the
// view tracks every in-place update (optimizer steps, DDP unflatten,
// checkpoint load) with nothing to refresh, and its output is bitwise
// identical to MLP.Forward on a tape, whose MatMul → AddBias[ReLU]
// chain stores the same values (asserted by the parity tests). For
// T = float32 construction converts the weights once and the result is
// an immutable snapshot. Forward only reads the weights, so either
// form is safe for concurrent use while nothing writes the parameters.
type MLPInference[T fp.Float] struct {
	cfg   MLPConfig
	w, b  []*tensor.Matrix[T] // per linear layer (hidden... , output)
	gain  []*tensor.Matrix[T] // per LayerNorm, when cfg.LayerNorm
	shift []*tensor.Matrix[T]
}

// NewMLPInference returns the inference forward of m at precision T: a
// view of m's parameters at float64, a converted copy at float32
// (float64→float32 rounds to nearest even, here, once — not per event).
func NewMLPInference[T fp.Float](m *MLP) *MLPInference[T] {
	mi := &MLPInference[T]{cfg: m.cfg}
	for _, l := range m.layers {
		mi.w = append(mi.w, convertParam[T](l.W))
		mi.b = append(mi.b, convertParam[T](l.B))
	}
	for _, n := range m.norms {
		mi.gain = append(mi.gain, convertParam[T](n.Gain))
		mi.shift = append(mi.shift, convertParam[T](n.Bias))
	}
	return mi
}

// convertParam returns p's value at precision T: the parameter's own
// matrix at float64 (Param.Value is only ever written in place, so the
// alias stays current), a converted copy otherwise.
func convertParam[T fp.Float](p *autograd.Param) *tensor.Matrix[T] {
	if v, ok := any(p.Value).(*tensor.Matrix[T]); ok {
		return v
	}
	return tensor.ConvertFrom[T](nil, p.Value)
}

// Config returns the configuration of the underlying MLP.
func (mi *MLPInference[T]) Config() MLPConfig { return mi.cfg }

// Forward runs the MLP on the rows [in₀ ‖ in₁ ‖ …] under the given
// intra-op worker budget, borrowing every activation from the arena
// (heap fallback when nil). The caller owns the arena lifecycle: the
// returned matrix is valid until the arena resets past it.
func (mi *MLPInference[T]) Forward(kc kernels.Context, a *workspace.Arena, in ...tensor.Seg[T]) *tensor.Matrix[T] {
	rows, last := in[0].Rows(), len(mi.w)-1
	hid := make([]*tensor.Matrix[T], last)
	for i := range hid {
		hid[i] = tensor.NewFromOf[T](a, rows, mi.w[i].Cols())
	}
	out := tensor.NewFromOf[T](a, rows, mi.w[last].Cols())
	mi.ForwardInto(kc, out, hid, in...)
	return out
}

// ForwardInto is Forward into caller-owned activations: hid[i] receives
// hidden layer i's output and out the final layer's, every element of
// each overwritten — so a caller running the same shape repeatedly (the
// GNN's message-passing steps) reuses one set of buffers. Neither may
// alias an input segment.
func (mi *MLPInference[T]) ForwardInto(kc kernels.Context, out *tensor.Matrix[T], hid []*tensor.Matrix[T], in ...tensor.Seg[T]) {
	last := len(mi.w) - 1
	if len(hid) != last {
		panic("nn: ForwardInto needs one buffer per hidden layer")
	}
	relu := mi.cfg.Activation == ReLU
	var prev [1]tensor.Seg[T]
	for i, z := range hid {
		tensor.MatMulSegsIntoCtx(kc, z, mi.w[i], mi.b[i], relu, in...)
		if !relu {
			applyActivation(mi.cfg.Activation, z)
		}
		if mi.cfg.LayerNorm {
			layerNormInto(z, mi.gain[i], mi.shift[i], 1e-5)
		}
		prev[0] = tensor.Seg[T]{M: z}
		in = prev[:]
	}
	tensor.MatMulSegsIntoCtx(kc, out, mi.w[last], mi.b[last], false, in...)
}

// applyActivation applies the nonlinearity in place. ReLU is handled by
// the GEMM epilogue and never reaches here.
func applyActivation[T fp.Float](act Activation, m *tensor.Matrix[T]) {
	switch act {
	case Tanh:
		tensor.ApplyInto(m, m, func(v T) T { return T(math.Tanh(float64(v))) })
	case Sigmoid:
		tensor.ApplyInto(m, m, func(v T) T { return T(sigmoidStable(float64(v))) })
	case None:
	default:
		panic("nn: unsupported inference activation")
	}
}

// sigmoidStable is the numerically stable logistic function (the same
// form the autograd tape and the stage packages use).
func sigmoidStable(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// SigmoidScore converts one logit to a float64 score — the boundary
// where the f32 inference path returns to the float64 metric/threshold
// domain.
func SigmoidScore[T fp.Float](logit T) float64 { return sigmoidStable(float64(logit)) }

// layerNormInto normalizes each row of m in place and applies the
// gain/shift pair — exactly the forward arithmetic of the tape's
// LayerNorm op (mean and variance accumulate in T, the reciprocal
// square root is taken in float64), so the float64 instantiation is
// bitwise identical to training-path inference.
func layerNormInto[T fp.Float](m, gain, shift *tensor.Matrix[T], eps float64) {
	rows, cols := m.Rows(), m.Cols()
	cf := T(cols)
	gd, bd := gain.Data(), shift.Data()
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		var mean T
		for _, x := range row {
			mean += x
		}
		mean /= cf
		var variance T
		for _, x := range row {
			d := x - mean
			variance += d * d
		}
		variance /= cf
		is := T(1) / T(math.Sqrt(float64(variance)+eps))
		for j, x := range row {
			row[j] = (x-mean)*is*gd[j] + bd[j]
		}
	}
}
