package tensor

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/workspace"
)

// This file holds the int8 quantized inference kernels. The scheme is
// symmetric linear quantization: real ≈ float32(q)·scale with q clamped
// to ±127 (−128 is never produced, keeping the scheme symmetric).
// Activations carry one per-tensor scale captured by calibration;
// weights carry one scale per output column (per-channel), so a single
// badly-scaled channel cannot poison the rest of the layer. GEMM
// accumulates int8×int8 products in int32 — exact integer arithmetic,
// so the result is bitwise identical at any worker count — and the
// epilogue fuses dequantize + bias + ReLU (and optionally requantize to
// int8 for the next layer) into the same pass, mirroring the
// AddBiasReLUInto fusion of the float path.

// qmax is the symmetric int8 clamp bound.
const qmax = 127

// QMat is a dense row-major int8 matrix with one symmetric per-tensor
// quantization scale: real value ≈ float32(q)·Scale.
type QMat struct {
	rows, cols int
	data       []int8
	Scale      float32
}

// NewQMat returns a zeroed rows×cols int8 matrix with the given scale.
func NewQMat(rows, cols int, scale float32) *QMat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &QMat{rows: rows, cols: cols, data: make([]int8, rows*cols), Scale: scale}
}

// NewQMatFrom is NewQMat with storage borrowed from the arena's
// workspace pools (heap fallback when arena is nil) — how the int8
// inference path recycles activation buffers per event.
func NewQMatFrom(a *workspace.Arena, rows, cols int, scale float32) *QMat {
	if a == nil {
		return NewQMat(rows, cols, scale)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &QMat{rows: rows, cols: cols, data: a.I8(rows * cols), Scale: scale}
}

// Rows returns the number of rows.
func (m *QMat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *QMat) Cols() int { return m.cols }

// Data returns the underlying row-major backing slice (not a copy).
func (m *QMat) Data() []int8 { return m.data }

// Row returns row i as a slice aliasing the matrix storage.
func (m *QMat) Row(i int) []int8 { return m.data[i*m.cols : (i+1)*m.cols] }

// QWeights is an int8 weight matrix (in×out, row-major like Matrix)
// with one symmetric scale per output column: real W[k,j] ≈
// float32(q[k,j])·ColScale[j]. Immutable after construction.
type QWeights struct {
	rows, cols int
	data       []int8
	ColScale   []float32
}

// Rows returns the input dimension (rows of the weight matrix).
func (w *QWeights) Rows() int { return w.rows }

// Cols returns the output dimension (columns of the weight matrix).
func (w *QWeights) Cols() int { return w.cols }

// Data returns the underlying row-major int8 payload (not a copy).
func (w *QWeights) Data() []int8 { return w.data }

// QuantizeWeights quantizes a float64 weight matrix per output column:
// ColScale[j] = maxabs(column j)/127 (1 for an all-zero column) and
// q = round(v/scale) clamped to ±127. The same function quantizes
// weights at runtime (syncing the int8 inference snapshot) and at
// checkpoint-export time, so a v4 checkpoint round-trips to bitwise
// identical quantized weights.
func QuantizeWeights(w *Matrix[float64]) *QWeights {
	q := &QWeights{
		rows:     w.rows,
		cols:     w.cols,
		data:     make([]int8, w.rows*w.cols),
		ColScale: make([]float32, w.cols),
	}
	for j := 0; j < w.cols; j++ {
		maxAbs := 0.0
		for i := 0; i < w.rows; i++ {
			if a := math.Abs(w.data[i*w.cols+j]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			q.ColScale[j] = 1
			continue
		}
		q.ColScale[j] = float32(maxAbs / qmax)
	}
	for i := 0; i < w.rows; i++ {
		for j := 0; j < w.cols; j++ {
			q.data[i*w.cols+j] = quantizeValue(w.data[i*w.cols+j], float64(q.ColScale[j]))
		}
	}
	return q
}

// quantizeValue rounds v/scale to the nearest integer (half away from
// zero) and clamps to ±127.
func quantizeValue(v, scale float64) int8 {
	q := math.Round(v / scale)
	if q > qmax {
		q = qmax
	} else if q < -qmax {
		q = -qmax
	}
	return int8(q)
}

// QuantizeInto quantizes the float32 matrix src at the given per-tensor
// scale into out (same shape): out[i] = clamp(round(src[i]/scale)).
// This is the precision boundary on the way into every int8 GEMM whose
// input was produced in float32 (event features, LayerNorm outputs,
// gather/concat assemblies). Elementwise, so bitwise identical at any
// worker count; steady-state calls perform no heap allocation.
func QuantizeInto(kc kernels.Context, out *QMat, src *Matrix[float32], scale float32) {
	if out.rows != src.rows || out.cols != src.cols {
		panic(fmt.Sprintf("tensor: QuantizeInto shape mismatch %dx%d vs %dx%d", out.rows, out.cols, src.rows, src.cols))
	}
	if !(scale > 0) {
		panic(fmt.Sprintf("tensor: QuantizeInto scale %v", scale))
	}
	out.Scale = scale
	parallel.ForWithN(kc.Cap(), out.rows, 64, quantizeCtx{out, src}, quantizeBody)
}

// quantizeCtx carries QuantizeInto operands into capture-free parallel
// bodies.
type quantizeCtx struct {
	out *QMat
	src *Matrix[float32]
}

// quantizeBody quantizes rows [lo, hi) of src into out.
func quantizeBody(c quantizeCtx, lo, hi int) {
	cols, scale := c.out.cols, float64(c.out.Scale)
	for i := lo; i < hi; i++ {
		row := c.src.data[i*cols : (i+1)*cols]
		oRow := c.out.data[i*cols : (i+1)*cols]
		for j, v := range row {
			oRow[j] = quantizeValue(float64(v), scale)
		}
	}
}

// DequantizeInto widens out = float32(q)·Scale — the inverse boundary,
// used by tests and by accuracy probes; the inference path never calls
// it (dequantization is fused into the kernel epilogues).
func DequantizeInto(out *Matrix[float32], q *QMat) {
	if out.rows != q.rows || out.cols != q.cols {
		panic("tensor: DequantizeInto shape mismatch")
	}
	for i, v := range q.data {
		out.data[i] = float32(v) * q.Scale
	}
}

// qmatmulGrain mirrors matmulGrain for the int8 GEMM.
const qmatmulGrain = 8

// qgemmCtx carries the int8 GEMM operands into capture-free parallel
// bodies. Exactly one of outF (float32 epilogue) and outQ (requantizing
// epilogue) is non-nil.
type qgemmCtx struct {
	outF *Matrix[float32]
	outQ *QMat
	a    *QMat
	w    *QWeights
	bias []float32
	relu bool
}

// QMatMulBiasInto computes out = dequant(a×w) + bias, with ReLU fused
// when relu is set, in one pass: the GEMM accumulates int8×int8
// products in int32 per output element, and the epilogue applies
// out[i,j] = float32(acc)·a.Scale·w.ColScale[j] + bias[j] (then
// max(0,·)) without the integer product ever round-tripping through
// memory. This is the output-layer kernel of the quantized MLP (and the
// hidden-layer kernel when a float32 epilogue is needed, e.g. before
// LayerNorm). bias must have length w.Cols().
//
// Accumulation is exact integer arithmetic and rows partition
// statically, so the result is bitwise identical at every worker count.
// Steady-state calls perform no heap allocation (the panel buffer comes
// from the workspace pools).
func QMatMulBiasInto(kc kernels.Context, out *Matrix[float32], a *QMat, w *QWeights, bias []float32, relu bool) {
	checkQGEMM(a, w, bias, out.rows, out.cols, "QMatMulBiasInto")
	qgemmTiled(kc, qgemmCtx{outF: out, a: a, w: w, bias: bias, relu: relu})
}

// QMatMulBiasReLUQuantInto is the fully-fused hidden-layer kernel:
// int8 GEMM, dequantize, bias, ReLU, and requantization to the next
// layer's input scale in one pass — out is int8 at outScale, so the
// activation never exists in float32 and the layer-to-layer traffic is
// a quarter of the float32 path's. bias must have length w.Cols().
// Bitwise identical at every worker count; zero-alloc steady state.
func QMatMulBiasReLUQuantInto(kc kernels.Context, out *QMat, a *QMat, w *QWeights, bias []float32, outScale float32) {
	checkQGEMM(a, w, bias, out.rows, out.cols, "QMatMulBiasReLUQuantInto")
	if !(outScale > 0) {
		panic(fmt.Sprintf("tensor: QMatMulBiasReLUQuantInto scale %v", outScale))
	}
	out.Scale = outScale
	qgemmTiled(kc, qgemmCtx{outQ: out, a: a, w: w, bias: bias, relu: true})
}

func checkQGEMM(a *QMat, w *QWeights, bias []float32, outRows, outCols int, op string) {
	if a.cols != w.rows {
		panic(fmt.Sprintf("tensor: %s inner dims %d vs %d", op, a.cols, w.rows))
	}
	if outRows != a.rows || outCols != w.cols {
		panic(fmt.Sprintf("tensor: %s output shape mismatch", op))
	}
	if len(bias) != w.cols {
		panic(fmt.Sprintf("tensor: %s bias length %d vs %d columns", op, len(bias), w.cols))
	}
}

// QConcatColsInto concatenates int8 matrices horizontally into out.
// Every input must share out's quantization scale — concatenation of
// int8 payloads at mismatched scales would silently mix units — and
// the shapes must add up. Used to assemble the quantized GNN node-net
// input [Msrc ‖ Mdst ‖ X'] without a float32 intermediate.
func QConcatColsInto(kc kernels.Context, out *QMat, ms ...*QMat) {
	rows, totalCols := 0, 0
	for i, m := range ms {
		if i == 0 {
			rows = m.rows
		} else if m.rows != rows {
			panic(fmt.Sprintf("tensor: QConcatCols row mismatch %d vs %d", m.rows, rows))
		}
		if m.Scale != out.Scale {
			panic(fmt.Sprintf("tensor: QConcatCols scale mismatch %v vs %v", m.Scale, out.Scale))
		}
		totalCols += m.cols
	}
	if out.rows != rows || out.cols != totalCols {
		panic("tensor: QConcatColsInto output shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), rows, 64, qconcatCtx{out, ms}, qconcatBody)
}

// qconcatCtx carries QConcatColsInto operands into capture-free
// parallel bodies.
type qconcatCtx struct {
	out *QMat
	ms  []*QMat
}

// qconcatBody copies rows [lo, hi) of the int8 horizontal concat.
func qconcatBody(c qconcatCtx, lo, hi int) {
	out := c.out
	for i := lo; i < hi; i++ {
		off := i * out.cols
		for _, m := range c.ms {
			copy(out.data[off:off+m.cols], m.data[i*m.cols:(i+1)*m.cols])
			off += m.cols
		}
	}
}
