package sparse

import (
	"fmt"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Parallel kernel bodies are named top-level generic functions whose
// two instantiations are bound once at init and selected via fp.Pick —
// materializing a generic func value inside a generic kernel would
// allocate a dictionary-carrying closure per call and break the
// zero-allocation contract (see the same pattern in internal/tensor).
func pickBody[T fp.Float, C any](v64, v32 any) func(C, int, int) {
	return fp.Pick[T, func(C, int, int)](v64, v32)
}

var (
	spmmBody64 any = spmmBody[float64]
	spmmBody32 any = spmmBody[float32]
)

// spmmCtx carries SpMM operands into capture-free parallel bodies; res
// is nil for the plain product and the residual operand for SpMMAdd.
type spmmCtx[T fp.Float] struct {
	out *tensor.Matrix[T]
	a   *CSROf[T]
	x   *tensor.Matrix[T]
	res *tensor.Matrix[T]
}

// SpMMIntoCtx computes out = a×x under an explicit intra-op worker
// budget. out must be preallocated with shape a.RowsN × x.Cols() and must
// not alias x. Steady-state calls perform no heap allocation. Rows
// partition statically and each output row accumulates serially in
// CSR column order, so the result is bitwise identical at every worker
// count.
func SpMMIntoCtx[T fp.Float](kc kernels.Context, out *tensor.Matrix[T], a *CSROf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	if a.ColsN != x.Rows() {
		panic(fmt.Sprintf("sparse: SpMM inner dims %d vs %d", a.ColsN, x.Rows()))
	}
	if out.Rows() != a.RowsN || out.Cols() != x.Cols() {
		panic("sparse: SpMMIntoCtx output shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), a.RowsN, 32, spmmCtx[T]{out, a, x, nil},
		pickBody[T, spmmCtx[T]](spmmBody64, spmmBody32))
	return out
}

// SpMMAddIntoCtx computes out = a×x + res in one pass — the fused
// message-aggregation-plus-residual kernel: each output row starts from
// the residual row instead of zero, so res is read exactly once and no
// intermediate product matrix exists. out may alias res (each row is
// read before it is written, and rows are disjoint across workers); it
// must not alias x. Shapes: out, res are a.RowsN × x.Cols(). Bitwise
// identical at every worker count.
func SpMMAddIntoCtx[T fp.Float](kc kernels.Context, out *tensor.Matrix[T], a *CSROf[T], x, res *tensor.Matrix[T]) *tensor.Matrix[T] {
	if a.ColsN != x.Rows() {
		panic(fmt.Sprintf("sparse: SpMMAdd inner dims %d vs %d", a.ColsN, x.Rows()))
	}
	if out.Rows() != a.RowsN || out.Cols() != x.Cols() {
		panic("sparse: SpMMAddIntoCtx output shape mismatch")
	}
	if res.Rows() != a.RowsN || res.Cols() != x.Cols() {
		panic("sparse: SpMMAddIntoCtx residual shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), a.RowsN, 32, spmmCtx[T]{out, a, x, res},
		pickBody[T, spmmCtx[T]](spmmBody64, spmmBody32))
	return out
}

// spmmBody computes rows [lo, hi) of out = a×x (+ res). Kept as a named
// function so both entry points share one capture-free body.
func spmmBody[T fp.Float](cx spmmCtx[T], lo, hi int) {
	out, a, x := cx.out, cx.a, cx.x
	for i := lo; i < hi; i++ {
		oRow := out.Row(i)
		if cx.res != nil {
			copy(oRow, cx.res.Row(i))
		} else {
			for j := range oRow {
				oRow[j] = 0
			}
		}
		cols, vals := a.Row(i)
		for k, col := range cols {
			v := vals[k]
			for j, xv := range x.Row(col)[:len(oRow)] {
				oRow[j] += v * xv
			}
		}
	}
}
