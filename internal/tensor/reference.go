package tensor

import (
	"fmt"
	"math"

	"repro/internal/fp"
	"repro/internal/kernels"
)

// This file holds the package's test oracles: serial, unfused kernels
// and conveniences that tests in this and other packages compare the
// fused and parallel kernels against. No program calls them.

// AddBiasRef computes out = m with the 1×cols row vector b added to every
// row. out may alias m.
func AddBiasRef[T fp.Float](out, m, b *Matrix[T]) {
	if b.rows != 1 || b.cols != m.cols {
		panic(fmt.Sprintf("tensor: AddBias bias %dx%d vs matrix cols %d", b.rows, b.cols, m.cols))
	}
	checkSame("AddBiasRef", out, m)
	for i := 0; i < m.rows; i++ {
		oRow := out.data[i*m.cols : (i+1)*m.cols]
		for j, v := range m.data[i*m.cols : (i+1)*m.cols] {
			oRow[j] = v + b.data[j]
		}
	}
}

// AddBiasReLURef computes out = max(0, m + bias): AddBiasRef and then
// ReLU, in one pass. out may alias m.
func AddBiasReLURef[T fp.Float](out, m, bias *Matrix[T]) {
	if bias.rows != 1 || bias.cols != m.cols {
		panic(fmt.Sprintf("tensor: AddBiasReLU bias %dx%d vs matrix cols %d", bias.rows, bias.cols, m.cols))
	}
	checkSame("AddBiasReLURef", out, m)
	for i := 0; i < m.rows; i++ {
		oRow := out.data[i*m.cols : (i+1)*m.cols]
		for j, v := range m.data[i*m.cols : (i+1)*m.cols] {
			if s := v + bias.data[j]; s > 0 {
				oRow[j] = s
			} else {
				oRow[j] = 0
			}
		}
	}
}

// ConcatColsRef concatenates matrices horizontally into out, which must
// have the combined shape and must not alias any input.
func ConcatColsRef[T fp.Float](out *Matrix[T], ms ...*Matrix[T]) {
	rows, totalCols := concatColsShape(ms)
	if out.rows != rows || out.cols != totalCols {
		panic("tensor: ConcatColsRef output shape mismatch")
	}
	for i := 0; i < rows; i++ {
		off := i * totalCols
		for _, m := range ms {
			copy(out.data[off:off+m.cols], m.data[i*m.cols:(i+1)*m.cols])
			off += m.cols
		}
	}
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

// FromRows builds a matrix from a slice of equal-length rows (copying).
func FromRows[T fp.Float](rows [][]T) *Matrix[T] {
	if len(rows) == 0 {
		return NewOf[T](0, 0)
	}
	c := len(rows[0])
	m := NewOf[T](len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("tensor: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix[T]) Clone() *Matrix[T] {
	c := NewOf[T](m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MaxAbsDiff returns max |m[i]-o[i]|; shapes must match.
func (m *Matrix[T]) MaxAbsDiff(o *Matrix[T]) float64 {
	if !m.SameShape(o) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	worst := 0.0
	for i := range m.data {
		if d := math.Abs(float64(m.data[i]) - float64(o.data[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// Fill sets all elements to v.
func (m *Matrix[T]) Fill(v T) {
	for i := range m.data {
		m.data[i] = v
	}
}

// AXPY computes m += s*o.
func (m *Matrix[T]) AXPY(s T, o *Matrix[T]) {
	checkSame("AXPY", m, o)
	for i, v := range o.data {
		m.data[i] += s * v
	}
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

// ApplyInto computes out = f applied elementwise to m. out may alias m.
func ApplyInto[T fp.Float](out, m *Matrix[T], f func(T) T) {
	checkSame("ApplyInto", out, m)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
}

// MatMul returns a×b. Panics on an inner-dimension mismatch.
func MatMul[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	out := NewOf[T](a.rows, b.cols)
	MatMulIntoCtx(kernels.Context{}, out, a, b)
	return out
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

// Norm2 returns the Frobenius norm.
func (m *Matrix[T]) Norm2() float64 {
	var s T
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(float64(s))
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

// GatherRows returns the matrix whose i-th row is m's row idx[i].
func GatherRows[T fp.Float](m *Matrix[T], idx []int) *Matrix[T] {
	out := NewOf[T](len(idx), m.cols)
	GatherRowsIntoCtx(kernels.Context{}, out, m, idx)
	return out
}

// ExtractColsInto copies the colOff..colOff+dst.cols column band of src
// into dst: the inverse of one ConcatColsRef segment.
func ExtractColsInto[T fp.Float](dst, src *Matrix[T], colOff int) {
	if dst.rows != src.rows || colOff < 0 || colOff+dst.cols > src.cols {
		panic(fmt.Sprintf("tensor: ExtractColsInto band [%d,%d) of %d cols, rows %d vs %d",
			colOff, colOff+dst.cols, src.cols, dst.rows, src.rows))
	}
	for i := 0; i < dst.rows; i++ {
		copy(dst.data[i*dst.cols:(i+1)*dst.cols], src.data[i*src.cols+colOff:i*src.cols+colOff+dst.cols])
	}
}

// Data returns the underlying row-major backing slice (not a copy).
func (m *QMat) Data() []int8 { return m.data }
