package tensor

import (
	"fmt"
	"math"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/parallel"
)

// matmulGrain is the minimum number of output rows per parallel chunk.
const matmulGrain = 8

// The parallel kernel bodies below are named top-level generic
// functions whose float64 and float32 instantiations are bound once
// into package variables: materializing a generic func value inside a
// generic kernel would allocate a dictionary-carrying closure per call
// and break the zero-allocation contract (see fp.Pick). pickBody
// selects the pre-bound instantiation with a branch and an interface
// assertion.
func pickBody[T fp.Float, C any](v64, v32 any) func(C, int, int) {
	return fp.Pick[T, func(C, int, int)](v64, v32)
}

var (
	matMulTBody64       any = matMulTBody[float64]
	matMulTBody32       any = matMulTBody[float32]
	tMatMulBody64       any = tMatMulBody[float64]
	tMatMulBody32       any = tMatMulBody[float32]
	addBiasBody64       any = addBiasBody[float64]
	addBiasBody32       any = addBiasBody[float32]
	concatColsBody64    any = concatColsBody[float64]
	concatColsBody32    any = concatColsBody[float32]
	gatherRowsBody64    any = gatherRowsBody[float64]
	gatherRowsBody32    any = gatherRowsBody[float32]
	addBiasReLUBody64   any = addBiasReLUBody[float64]
	addBiasReLUBody32   any = addBiasReLUBody[float32]
	gatherConcat3Body64 any = gatherConcat3Body[float64]
	gatherConcat3Body32 any = gatherConcat3Body[float32]
)

// MatMul returns a×b. Panics on an inner-dimension mismatch.
func MatMul[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	out := NewOf[T](a.rows, b.cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a×b. out must be preallocated with shape
// a.rows × b.cols and must not alias a or b. Steady-state calls perform
// no heap allocation.
func MatMulInto[T fp.Float](out, a, b *Matrix[T]) {
	MatMulIntoCtx(kernels.Context{}, out, a, b)
}

// MatMulIntoCtx is MatMulInto under an explicit intra-op worker budget.
// It is the one-segment, no-epilogue call of the packed-panel GEMM in
// tiled.go, whose file comment states the accumulation contract: a is
// read in place, and row blocks partition statically, so the result is
// bitwise identical at every worker count.
func MatMulIntoCtx[T fp.Float](kc kernels.Context, out, a, b *Matrix[T]) {
	MatMulSegsIntoCtx(kc, out, b, nil, false, Seg[T]{M: a})
}

// matCtx carries kernel operands into capture-free parallel bodies (see
// parallel.ForWith).
type matCtx[T fp.Float] struct {
	out, a, b *Matrix[T]
}

// MatMulT returns a×bᵀ, used by backprop (dA = G×Bᵀ) without forming Bᵀ.
func MatMulT[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	out := NewOf[T](a.rows, b.rows)
	MatMulTInto(out, a, b)
	return out
}

// MatMulTInto computes out = a×bᵀ without forming bᵀ. out must have
// shape a.rows × b.rows and must not alias a or b. The dot-product inner
// loop runs four independent accumulators for instruction-level
// parallelism.
func MatMulTInto[T fp.Float](out, a, b *Matrix[T]) {
	MatMulTIntoCtx(kernels.Context{}, out, a, b)
}

// MatMulTIntoCtx is MatMulTInto under an explicit intra-op worker
// budget; bitwise identical at every worker count.
func MatMulTIntoCtx[T fp.Float](kc kernels.Context, out, a, b *Matrix[T]) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dims %d vs %d", a.cols, b.cols))
	}
	if out.rows != a.rows || out.cols != b.rows {
		panic("tensor: MatMulTInto output shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), a.rows, matmulGrain, matCtx[T]{out, a, b},
		pickBody[T, matCtx[T]](matMulTBody64, matMulTBody32))
}

// matMulTBody computes rows [lo, hi) of out = a×bᵀ (see MatMulTIntoCtx).
func matMulTBody[T fp.Float](c matCtx[T], lo, hi int) {
	out, a, b := c.out, c.a, c.b
	k := a.cols
	for i := lo; i < hi; i++ {
		aRow := a.data[i*k : (i+1)*k]
		oRow := out.data[i*b.rows : (i+1)*b.rows]
		for j := 0; j < b.rows; j++ {
			bRow := b.data[j*k : (j+1)*k]
			var s0, s1, s2, s3 T
			p := 0
			for ; p+4 <= k; p += 4 {
				s0 += aRow[p] * bRow[p]
				s1 += aRow[p+1] * bRow[p+1]
				s2 += aRow[p+2] * bRow[p+2]
				s3 += aRow[p+3] * bRow[p+3]
			}
			sum := s0 + s1 + s2 + s3
			for ; p < k; p++ {
				sum += aRow[p] * bRow[p]
			}
			oRow[j] = sum
		}
	}
}

// TMatMul returns aᵀ×b, used by backprop (dB = Aᵀ×G) without forming Aᵀ.
func TMatMul[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	out := NewOf[T](a.cols, b.cols)
	TMatMulInto(out, a, b)
	return out
}

// TMatMulInto computes out = aᵀ×b without forming aᵀ. out must have
// shape a.cols × b.cols and must not alias a or b.
func TMatMulInto[T fp.Float](out, a, b *Matrix[T]) {
	TMatMulIntoCtx(kernels.Context{}, out, a, b)
}

// TMatMulIntoCtx is TMatMulInto under an explicit intra-op worker
// budget; bitwise identical at every worker count.
func TMatMulIntoCtx[T fp.Float](kc kernels.Context, out, a, b *Matrix[T]) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dims %d vs %d", a.rows, b.rows))
	}
	if out.rows != a.cols || out.cols != b.cols {
		panic("tensor: TMatMulInto output shape mismatch")
	}
	// Parallelize over output rows (columns of a) to avoid write races.
	parallel.ForWithN(kc.Cap(), a.cols, 1, matCtx[T]{out, a, b},
		pickBody[T, matCtx[T]](tMatMulBody64, tMatMulBody32))
}

// tMatMulBody computes rows [lo, hi) of out = aᵀ×b (see TMatMulIntoCtx).
func tMatMulBody[T fp.Float](c matCtx[T], lo, hi int) {
	out, a, b := c.out, c.a, c.b
	for i := lo; i < hi; i++ {
		oRow := out.data[i*b.cols : (i+1)*b.cols]
		for j := range oRow {
			oRow[j] = 0
		}
	}
	for p := 0; p < a.rows; p++ {
		aRow := a.data[p*a.cols : (p+1)*a.cols]
		bRow := b.data[p*b.cols : (p+1)*b.cols]
		for i := lo; i < hi; i++ {
			av := aRow[i]
			if av == 0 {
				continue
			}
			oRow := out.data[i*b.cols : (i+1)*b.cols]
			for j, bv := range bRow {
				oRow[j] += av * bv
			}
		}
	}
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix[T]) Transpose() *Matrix[T] {
	out := NewOf[T](m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// Add returns a+b elementwise.
func Add[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	out := NewOf[T](a.rows, a.cols)
	AddInto(out, a, b)
	return out
}

// AddInto computes out = a+b elementwise. out may alias a or b.
func AddInto[T fp.Float](out, a, b *Matrix[T]) {
	checkSame("Add", a, b)
	checkSame("AddInto", out, a)
	for i := range out.data {
		out.data[i] = a.data[i] + b.data[i]
	}
}

// AddInPlace computes m += o.
func (m *Matrix[T]) AddInPlace(o *Matrix[T]) {
	checkSame("AddInPlace", m, o)
	for i, v := range o.data {
		m.data[i] += v
	}
}

// Sub returns a-b elementwise.
func Sub[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	out := NewOf[T](a.rows, a.cols)
	SubInto(out, a, b)
	return out
}

// SubInto computes out = a-b elementwise. out may alias a or b.
func SubInto[T fp.Float](out, a, b *Matrix[T]) {
	checkSame("Sub", a, b)
	checkSame("SubInto", out, a)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
}

// Mul returns the elementwise (Hadamard) product a*b.
func Mul[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	out := NewOf[T](a.rows, a.cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes out = a*b elementwise. out may alias a or b.
func MulInto[T fp.Float](out, a, b *Matrix[T]) {
	checkSame("Mul", a, b)
	checkSame("MulInto", out, a)
	for i := range out.data {
		out.data[i] = a.data[i] * b.data[i]
	}
}

// Scale returns s*m.
func Scale[T fp.Float](s T, m *Matrix[T]) *Matrix[T] {
	out := NewOf[T](m.rows, m.cols)
	ScaleInto(out, s, m)
	return out
}

// ScaleInto computes out = s*m elementwise. out may alias m.
func ScaleInto[T fp.Float](out *Matrix[T], s T, m *Matrix[T]) {
	checkSame("ScaleInto", out, m)
	for i, v := range m.data {
		out.data[i] = s * v
	}
}

// ScaleInPlace computes m *= s.
func (m *Matrix[T]) ScaleInPlace(s T) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AXPY computes m += s*o.
func (m *Matrix[T]) AXPY(s T, o *Matrix[T]) {
	checkSame("AXPY", m, o)
	for i, v := range o.data {
		m.data[i] += s * v
	}
}

// AddBias returns m with the 1×cols row vector b added to every row.
func AddBias[T fp.Float](m, b *Matrix[T]) *Matrix[T] {
	out := NewOf[T](m.rows, m.cols)
	AddBiasInto(out, m, b)
	return out
}

// AddBiasInto computes out = m with the 1×cols row vector b added to
// every row. out may alias m.
func AddBiasInto[T fp.Float](out, m, b *Matrix[T]) {
	AddBiasIntoCtx(kernels.Context{}, out, m, b)
}

// AddBiasIntoCtx is AddBiasInto under an explicit intra-op worker
// budget.
func AddBiasIntoCtx[T fp.Float](kc kernels.Context, out, m, b *Matrix[T]) {
	if b.rows != 1 || b.cols != m.cols {
		panic(fmt.Sprintf("tensor: AddBias bias %dx%d vs matrix cols %d", b.rows, b.cols, m.cols))
	}
	checkSame("AddBiasInto", out, m)
	parallel.ForWithN(kc.Cap(), m.rows, 64, matCtx[T]{out, m, b},
		pickBody[T, matCtx[T]](addBiasBody64, addBiasBody32))
}

// addBiasBody computes rows [lo, hi) of out = m + bias (broadcast).
func addBiasBody[T fp.Float](c matCtx[T], lo, hi int) {
	out, m, b := c.out, c.a, c.b
	for i := lo; i < hi; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		oRow := out.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			oRow[j] = v + b.data[j]
		}
	}
}

// ColSums returns a 1×cols matrix with the sum of each column.
func (m *Matrix[T]) ColSums() *Matrix[T] {
	out := NewOf[T](1, m.cols)
	m.ColSumsInto(out)
	return out
}

// ColSumsInto computes the per-column sums into the 1×cols matrix out.
func (m *Matrix[T]) ColSumsInto(out *Matrix[T]) {
	if out.rows != 1 || out.cols != m.cols {
		panic("tensor: ColSumsInto output shape mismatch")
	}
	for j := range out.data {
		out.data[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j] += v
		}
	}
}

// RowSums returns a rows×1 matrix with the sum of each row.
func (m *Matrix[T]) RowSums() *Matrix[T] {
	out := NewOf[T](m.rows, 1)
	m.RowSumsInto(out)
	return out
}

// RowSumsInto computes the per-row sums into the rows×1 matrix out.
func (m *Matrix[T]) RowSumsInto(out *Matrix[T]) {
	if out.rows != m.rows || out.cols != 1 {
		panic("tensor: RowSumsInto output shape mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s T
		for _, v := range row {
			s += v
		}
		out.data[i] = s
	}
}

// Sum returns the sum of all elements (accumulated in T).
func (m *Matrix[T]) Sum() float64 {
	var s T
	for _, v := range m.data {
		s += v
	}
	return float64(s)
}

// Mean returns the mean of all elements (0 for an empty matrix).
func (m *Matrix[T]) Mean() float64 {
	if len(m.data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.data))
}

// Norm2 returns the Frobenius norm.
func (m *Matrix[T]) Norm2() float64 {
	var s T
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(float64(s))
}

// ApplyInto computes out = f applied elementwise to m. out may alias m.
func ApplyInto[T fp.Float](out, m *Matrix[T], f func(T) T) {
	checkSame("ApplyInto", out, m)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
}

// ConcatCols concatenates matrices horizontally. All inputs must have the
// same row count.
func ConcatCols[T fp.Float](ms ...*Matrix[T]) *Matrix[T] {
	rows, totalCols := concatColsShape(ms)
	out := NewOf[T](rows, totalCols)
	ConcatColsInto(out, ms...)
	return out
}

func concatColsShape[T fp.Float](ms []*Matrix[T]) (rows, totalCols int) {
	if len(ms) == 0 {
		return 0, 0
	}
	rows = ms[0].rows
	for _, m := range ms {
		if m.rows != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", m.rows, rows))
		}
		totalCols += m.cols
	}
	return rows, totalCols
}

// ConcatColsInto concatenates matrices horizontally into out, which must
// have the combined shape and must not alias any input.
func ConcatColsInto[T fp.Float](out *Matrix[T], ms ...*Matrix[T]) {
	ConcatColsIntoCtx(kernels.Context{}, out, ms...)
}

// concatCtx carries ConcatColsIntoCtx operands into capture-free
// parallel bodies.
type concatCtx[T fp.Float] struct {
	out *Matrix[T]
	ms  []*Matrix[T]
}

// ConcatColsIntoCtx is ConcatColsInto under an explicit intra-op worker
// budget.
func ConcatColsIntoCtx[T fp.Float](kc kernels.Context, out *Matrix[T], ms ...*Matrix[T]) {
	rows, totalCols := concatColsShape(ms)
	if out.rows != rows || out.cols != totalCols {
		panic("tensor: ConcatColsInto output shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), rows, 64, concatCtx[T]{out, ms},
		pickBody[T, concatCtx[T]](concatColsBody64, concatColsBody32))
}

// concatColsBody copies rows [lo, hi) of the horizontal concatenation.
func concatColsBody[T fp.Float](c concatCtx[T], lo, hi int) {
	out, totalCols := c.out, c.out.cols
	for i := lo; i < hi; i++ {
		off := i * totalCols
		for _, m := range c.ms {
			copy(out.data[off:off+m.cols], m.data[i*m.cols:(i+1)*m.cols])
			off += m.cols
		}
	}
}

// ExtractColsInto copies the colOff..colOff+dst.cols column band of src
// into dst (the inverse of one ConcatCols segment, used by its backward
// pass without materializing every split).
func ExtractColsInto[T fp.Float](dst, src *Matrix[T], colOff int) {
	if dst.rows != src.rows || colOff < 0 || colOff+dst.cols > src.cols {
		panic(fmt.Sprintf("tensor: ExtractColsInto band [%d,%d) of %d cols, rows %d vs %d",
			colOff, colOff+dst.cols, src.cols, dst.rows, src.rows))
	}
	for i := 0; i < dst.rows; i++ {
		copy(dst.data[i*dst.cols:(i+1)*dst.cols], src.data[i*src.cols+colOff:i*src.cols+colOff+dst.cols])
	}
}

// ConcatRows concatenates matrices vertically. All inputs must have the
// same column count.
func ConcatRows[T fp.Float](ms ...*Matrix[T]) *Matrix[T] {
	if len(ms) == 0 {
		return NewOf[T](0, 0)
	}
	cols := ms[0].cols
	totalRows := 0
	for _, m := range ms {
		if m.cols != cols {
			panic(fmt.Sprintf("tensor: ConcatRows col mismatch %d vs %d", m.cols, cols))
		}
		totalRows += m.rows
	}
	out := NewOf[T](totalRows, cols)
	off := 0
	for _, m := range ms {
		copy(out.data[off:off+len(m.data)], m.data)
		off += len(m.data)
	}
	return out
}

// SplitCols splits m into len(widths) matrices with the given column
// widths (which must sum to m.cols), undoing ConcatCols.
func SplitCols[T fp.Float](m *Matrix[T], widths ...int) []*Matrix[T] {
	total := 0
	for _, w := range widths {
		total += w
	}
	if total != m.cols {
		panic(fmt.Sprintf("tensor: SplitCols widths sum %d != cols %d", total, m.cols))
	}
	outs := make([]*Matrix[T], len(widths))
	for i, w := range widths {
		outs[i] = NewOf[T](m.rows, w)
	}
	for r := 0; r < m.rows; r++ {
		off := r * m.cols
		for i, w := range widths {
			copy(outs[i].data[r*w:(r+1)*w], m.data[off:off+w])
			off += w
		}
	}
	return outs
}

// GatherRows returns the matrix whose i-th row is m's row idx[i].
func GatherRows[T fp.Float](m *Matrix[T], idx []int) *Matrix[T] {
	out := NewOf[T](len(idx), m.cols)
	GatherRowsIntoCtx(kernels.Context{}, out, m, idx)
	return out
}

// gatherCtx carries GatherRowsIntoCtx operands into capture-free
// parallel bodies.
type gatherCtx[T fp.Float] struct {
	out, m *Matrix[T]
	idx    []int
}

// GatherRowsIntoCtx computes out[i] = m[idx[i]] under the intra-op
// worker budget kc; a row copy, so bitwise the same at every budget. out
// must have shape len(idx) × m.cols and must not alias m.
func GatherRowsIntoCtx[T fp.Float](kc kernels.Context, out, m *Matrix[T], idx []int) {
	if out.rows != len(idx) || out.cols != m.cols {
		panic("tensor: GatherRowsIntoCtx output shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), len(idx), 256, gatherCtx[T]{out, m, idx},
		pickBody[T, gatherCtx[T]](gatherRowsBody64, gatherRowsBody32))
}

// gatherRowsBody copies rows [lo, hi): out[i] = m[idx[i]].
func gatherRowsBody[T fp.Float](c gatherCtx[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(c.out.data[i*c.m.cols:(i+1)*c.m.cols], c.m.Row(c.idx[i]))
	}
}

// ScatterAddRows adds row i of src into row idx[i] of dst.
// Rows of dst may be targeted by multiple sources; execution is serial per
// destination row so no synchronization is required.
func ScatterAddRows[T fp.Float](dst, src *Matrix[T], idx []int) {
	if src.cols != dst.cols {
		panic("tensor: ScatterAddRows col mismatch")
	}
	if len(idx) != src.rows {
		panic("tensor: ScatterAddRows index length mismatch")
	}
	for i, target := range idx {
		dRow := dst.data[target*dst.cols : (target+1)*dst.cols]
		sRow := src.data[i*src.cols : (i+1)*src.cols]
		for j, v := range sRow {
			dRow[j] += v
		}
	}
}

func checkSame[T fp.Float](op string, a, b *Matrix[T]) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
