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
// with the bias (and, on a hidden layer, the ReLU) applied in its
// epilogue, and the first layer reads its input as column segments, so
// a concatenated or gathered input is never built.
//
// For T = float64 the weights alias the parameters' own storage: the
// view tracks every in-place update (optimizer steps, DDP unflatten,
// checkpoint load) with nothing to refresh, and its output is bitwise
// identical to MLP.ForwardSegs on a tape, whose Linear ops run the same
// GEMM and epilogue (asserted by the parity tests). For
// T = float32 construction converts the weights once and the result is
// an immutable snapshot. Forward only reads the weights, so either
// form is safe for concurrent use while nothing writes the parameters.
//
// An instance built by NewMLPCalibration also records activation
// ranges (see Scales) and is not safe for concurrent use.
type MLPInference[T fp.Float] struct {
	w, b []*tensor.Matrix[T] // per linear layer (hidden... , output)
	// maxAbs is nil on a serving instance. On a calibration instance
	// maxAbs[i] is the largest |value| seen entering linear layer i and
	// maxAbs[len(w)] the largest seen leaving the last one.
	maxAbs []float64
}

// NewMLPInference returns the inference forward of m at precision T: a
// view of m's parameters at float64, a converted copy at float32
// (float64→float32 rounds to nearest even, here, once — not per event).
func NewMLPInference[T fp.Float](m *MLP) *MLPInference[T] {
	mi := &MLPInference[T]{}
	for _, l := range m.layers {
		mi.w = append(mi.w, convertParam[T](l.W))
		mi.b = append(mi.b, convertParam[T](l.B))
	}
	return mi
}

// NewMLPCalibration returns m's float32 inference forward with range
// recording on: every forward also folds the max |value| entering each
// linear layer, and leaving the last, into the tables Scales and
// OutputScale read — the activation ranges checkpoint v4 exports beside
// the int8 weights. Its outputs are bitwise those of
// NewMLPInference[float32](m). Not safe for concurrent use.
func NewMLPCalibration(m *MLP) *MLPInference[float32] {
	mi := NewMLPInference[float32](m)
	mi.maxAbs = make([]float64, len(mi.w)+1)
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
	var prev [1]tensor.Seg[T]
	for i, z := range hid {
		mi.record(i, in)
		tensor.MatMulSegsIntoCtx(kc, z, mi.w[i], mi.b[i], true, in...)
		prev[0] = tensor.Seg[T]{M: z}
		in = prev[:]
	}
	mi.record(last, in)
	tensor.MatMulSegsIntoCtx(kc, out, mi.w[last], mi.b[last], false, in...)
	prev[0] = tensor.Seg[T]{M: out}
	mi.record(last+1, prev[:])
}

// record folds the max |value| of the rows segs name into maxAbs[slot];
// a no-op on a serving instance. A gathered segment counts only the
// rows its index names. NaN never raises the max.
func (mi *MLPInference[T]) record(slot int, segs []tensor.Seg[T]) {
	if mi.maxAbs == nil {
		return
	}
	worst := mi.maxAbs[slot]
	for _, s := range segs {
		if s.Idx == nil {
			worst = foldMaxAbs(worst, s.M.Data())
			continue
		}
		for _, r := range s.Idx {
			worst = foldMaxAbs(worst, s.M.Row(r))
		}
	}
	mi.maxAbs[slot] = worst
}

func foldMaxAbs[T fp.Float](worst float64, vals []T) float64 {
	for _, v := range vals {
		if a := math.Abs(float64(v)); a > worst {
			worst = a
		}
	}
	return worst
}

// Scales returns the symmetric int8 scale of every linear layer's
// input recorded so far: max|input|/127, and 1 for a layer that never
// saw a nonzero input. Only a NewMLPCalibration instance records; on a
// serving instance Scales and OutputScale panic.
func (mi *MLPInference[T]) Scales() []float32 {
	scales := make([]float32, len(mi.w))
	for i := range scales {
		scales[i] = symmetricScale(mi.maxAbs[i])
	}
	return scales
}

// OutputScale is Scales for the last linear layer's output.
func (mi *MLPInference[T]) OutputScale() float32 { return symmetricScale(mi.maxAbs[len(mi.w)]) }

// symmetricScale maps a recorded max |value| to its int8 scale.
func symmetricScale(maxAbs float64) float32 {
	if maxAbs == 0 {
		return 1
	}
	return float32(maxAbs / 127)
}

// SigmoidScore converts one logit to a float64 score — the boundary
// where the f32 inference path returns to the float64 metric/threshold
// domain.
func SigmoidScore[T fp.Float](logit T) float64 { return autograd.Logistic(float64(logit)) }
