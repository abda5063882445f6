package sparse

import (
	"fmt"
	"slices"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// spgemmGrain is the minimum rows per parallel chunk in SpGEMM passes.
const spgemmGrain = 16

// Parallel kernel bodies are named top-level generic functions whose
// two instantiations are bound once at init and selected via fp.Pick —
// materializing a generic func value inside a generic kernel would
// allocate a dictionary-carrying closure per call and break the
// zero-allocation contract (see the same pattern in internal/tensor).
func pickBody[T fp.Float, C any](v64, v32 any) func(C, int, int) {
	return fp.Pick[T, func(C, int, int)](v64, v32)
}

var (
	spgemmSymbolicBody64 any = spgemmSymbolicBody[float64]
	spgemmSymbolicBody32 any = spgemmSymbolicBody[float32]
	spgemmNumericBody64  any = spgemmNumericBody[float64]
	spgemmNumericBody32  any = spgemmNumericBody[float32]
	spmmBody64           any = spmmBody[float64]
	spmmBody32           any = spmmBody[float32]
)

// SpGEMM computes the sparse-sparse product a×b into a freshly allocated
// CSR. See SpGEMMIntoCtx for the algorithm.
func SpGEMM[T fp.Float](a, b *CSROf[T]) *CSROf[T] {
	return SpGEMMIntoCtx(kernels.Context{}, new(CSROf[T]), a, b)
}

// SpGEMMIntoCtx computes out = a×b with a two-pass (symbolic + numeric)
// Gustavson algorithm, parallelized over the rows of a under kc's
// intra-op worker budget. This is the
// kernel matrix-based bulk sampling leans on for the Qd·A neighborhood
// expansion and the row/column-selection extraction step (Figure 2).
//
// The symbolic pass counts the distinct columns of every output row and
// builds RowPtr with a prefix sum; the numeric pass then writes ColIdx
// and Vals directly into their final positions — no per-row slices are
// allocated and rows are ordered with a single in-place sort of each
// row's touched-column list. out's existing storage is reused when large
// enough and grown through the workspace pools otherwise, so steady-state
// calls on warmed pools perform no heap allocation.
//
// Entries whose products cancel to exactly zero are stored explicitly
// (standard two-pass CSR behaviour: the symbolic pass fixes the sparsity
// pattern before values are known). Boolean and selection operands — all
// the sampler ever multiplies — never cancel.
//
// Both passes partition rows statically and every output row is
// computed entirely by one worker (per-worker dense accumulator
// scratch, disjoint CSR ranges placed by the serial prefix sum), so the
// result is bitwise identical at every worker count.
//
// out must not alias a or b. Returns out.
func SpGEMMIntoCtx[T fp.Float](kc kernels.Context, out *CSROf[T], a, b *CSROf[T]) *CSROf[T] {
	if a.ColsN != b.RowsN {
		panic(fmt.Sprintf("sparse: SpGEMM inner dims %d vs %d", a.ColsN, b.RowsN))
	}
	if out == a || out == b {
		panic("sparse: SpGEMMIntoCtx output aliases an input")
	}
	rows, cols := a.RowsN, b.ColsN
	out.RowsN, out.ColsN = rows, cols
	out.RowPtr = workspace.GrowInt(out.RowPtr, rows+1)

	// Pass 1 (symbolic): out.RowPtr[i+1] ← number of distinct columns in
	// output row i.
	parallel.ForWithN(kc.Cap(), rows, spgemmGrain, spgemmCtx[T]{out, a, b, cols},
		pickBody[T, spgemmCtx[T]](spgemmSymbolicBody64, spgemmSymbolicBody32))

	// Prefix sum turns per-row counts into row offsets.
	out.RowPtr[0] = 0
	for i := 0; i < rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	nnz := out.RowPtr[rows]
	out.ColIdx = workspace.GrowInt(out.ColIdx, nnz)
	out.Vals = workspace.GrowFloat(out.Vals, nnz)

	// Pass 2 (numeric): accumulate each row in a dense scratch accumulator
	// and write the sorted columns and values straight into the output.
	parallel.ForWithN(kc.Cap(), rows, spgemmGrain, spgemmCtx[T]{out, a, b, cols},
		pickBody[T, spgemmCtx[T]](spgemmNumericBody64, spgemmNumericBody32))
	return out
}

// spgemmCtx carries SpGEMM operands into capture-free parallel bodies
// (see parallel.ForWith).
type spgemmCtx[T fp.Float] struct {
	out, a, b *CSROf[T]
	cols      int
}

// spgemmSymbolicBody counts the distinct output columns of rows
// [lo, hi) into out.RowPtr[i+1].
func spgemmSymbolicBody[T fp.Float](c spgemmCtx[T], lo, hi int) {
	out, a, b := c.out, c.a, c.b
	seen := workspace.GetBool(c.cols)
	touched := workspace.GetInt(c.cols)
	for i := lo; i < hi; i++ {
		cnt := 0
		aCols, _ := a.Row(i)
		for _, ac := range aCols {
			bCols, _ := b.Row(ac)
			for _, bc := range bCols {
				if !seen[bc] {
					seen[bc] = true
					touched[cnt] = bc
					cnt++
				}
			}
		}
		out.RowPtr[i+1] = cnt
		for _, c := range touched[:cnt] {
			seen[c] = false
		}
	}
	workspace.PutBool(seen)
	workspace.PutInt(touched)
}

// spgemmNumericBody accumulates rows [lo, hi) in a dense scratch and
// writes sorted columns and values into their final positions.
func spgemmNumericBody[T fp.Float](c spgemmCtx[T], lo, hi int) {
	out, a, b := c.out, c.a, c.b
	acc := workspace.GetFloat[T](c.cols)
	seen := workspace.GetBool(c.cols)
	touched := workspace.GetInt(c.cols)
	for i := lo; i < hi; i++ {
		cnt := 0
		aCols, aVals := a.Row(i)
		for k, ac := range aCols {
			av := aVals[k]
			bCols, bVals := b.Row(ac)
			for t, bc := range bCols {
				if !seen[bc] {
					seen[bc] = true
					touched[cnt] = bc
					cnt++
				}
				acc[bc] += av * bVals[t]
			}
		}
		row := touched[:cnt]
		slices.Sort(row)
		base := out.RowPtr[i]
		for k, c := range row {
			out.ColIdx[base+k] = c
			out.Vals[base+k] = acc[c]
			acc[c] = 0
			seen[c] = false
		}
	}
	workspace.PutFloat(acc)
	workspace.PutBool(seen)
	workspace.PutInt(touched)
}

// SpMM computes the sparse×dense product a×x into a new dense matrix.
func SpMM[T fp.Float](a *CSROf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	out := tensor.NewOf[T](a.RowsN, x.Cols())
	SpMMIntoCtx(kernels.Context{}, out, a, x)
	return out
}

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
	c := x.Cols()
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
			xRow := x.Row(col)
			for j := 0; j < c; j++ {
				oRow[j] += v * xRow[j]
			}
		}
	}
}

// ToDense materializes the matrix (for tests and small examples only).
func (m *CSROf[T]) ToDense() *tensor.Matrix[T] {
	out := tensor.NewOf[T](m.RowsN, m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		cols, vals := m.Row(i)
		row := out.Row(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
	}
	return out
}

// FromDense converts a dense matrix to CSR, dropping exact zeros.
func FromDense(d *tensor.Dense) *CSR {
	coo := NewCOO(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		for j, v := range row {
			if v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}
