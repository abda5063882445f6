// Package tensor implements dense row-major matrices and the parallel
// CPU kernels (blocked GEMM, elementwise ops, gather/scatter) that stand
// in for the GPU kernels used by the paper's PyTorch stack.
//
// The storage and every kernel are generic over the element type
// (Matrix[T] for T in fp.Float); Dense aliases the float64
// instantiation. The float64 surface is unchanged from the
// pre-generic package — same names, same semantics, bitwise-identical
// results — while the float32 instantiation halves the memory traffic
// of the bandwidth-bound inference kernels.
package tensor

import (
	"fmt"

	"repro/internal/fp"
	"repro/internal/workspace"
)

// Matrix is a dense row-major matrix of T.
type Matrix[T fp.Float] struct {
	rows, cols int
	data       []T
}

// Dense is the float64 matrix — the training and default-precision
// type, and the element type of every historical API in this package.
type Dense = Matrix[float64]

// New returns a zeroed rows×cols float64 matrix.
func New(rows, cols int) *Dense { return NewOf[float64](rows, cols) }

// NewOf returns a zeroed rows×cols matrix of the given element type.
func NewOf[T fp.Float](rows, cols int) *Matrix[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix[T]{rows: rows, cols: cols, data: make([]T, rows*cols)}
}

// NewFrom returns a zeroed rows×cols float64 matrix whose backing
// storage is borrowed from the arena's workspace pools. The matrix is
// valid until the arena is reset past the allocation point; a nil arena
// falls back to New. This is how autograd tapes and trainer steps
// recycle activation and gradient buffers instead of allocating per
// step.
func NewFrom(a *workspace.Arena, rows, cols int) *Dense {
	return NewFromOf[float64](a, rows, cols)
}

// NewFromOf is NewFrom generic over the element type.
func NewFromOf[T fp.Float](a *workspace.Arena, rows, cols int) *Matrix[T] {
	if a == nil {
		return NewOf[T](rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix[T]{rows: rows, cols: cols, data: workspace.Float[T](a, rows*cols)}
}

// FromSlice wraps data (length rows*cols, row-major) without copying.
func FromSlice[T fp.Float](rows, cols int, data []T) *Matrix[T] {
	if len(data) != rows*cols {
		panic(shapeError{"tensor: data length %d != %d*%d", len(data), rows, cols})
	}
	return &Matrix[T]{rows: rows, cols: cols, data: data}
}

// Rows returns the number of rows.
func (m *Matrix[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix[T]) Cols() int { return m.cols }

// Size returns rows*cols.
func (m *Matrix[T]) Size() int { return len(m.data) }

// Data returns the underlying row-major backing slice (not a copy).
func (m *Matrix[T]) Data() []T { return m.data }

// At returns element (i, j).
func (m *Matrix[T]) At(i, j int) T { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix[T]) Set(i, j int, v T) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix[T]) Row(i int) []T { return m.data[i*m.cols : (i+1)*m.cols] }

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix[T]) CopyFrom(src *Matrix[T]) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Zero sets all elements to 0.
func (m *Matrix[T]) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Matrix[T]) Fill(v T) {
	for i := range m.data {
		m.data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix[T]) SameShape(o *Matrix[T]) bool { return m.rows == o.rows && m.cols == o.cols }

// SliceRows returns a view of rows [lo, hi) sharing storage with m.
func (m *Matrix[T]) SliceRows(lo, hi int) *Matrix[T] {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(shapeError{"tensor: SliceRows [%d,%d) of %d rows", lo, hi, m.rows})
	}
	return &Matrix[T]{rows: hi - lo, cols: m.cols, data: m.data[lo*m.cols : hi*m.cols]}
}

// shapeError is the panic value of FromSlice and SliceRows. It formats
// only when printed, which keeps both cheap enough to inline, so a
// caller that copies their result into a header it holds allocates
// nothing.
type shapeError struct {
	format  string
	a, b, c int
}

func (e shapeError) Error() string { return fmt.Sprintf(e.format, e.a, e.b, e.c) }

// Convert copies src into dst elementwise, converting between element
// types (float64→float32 rounds to nearest; float32→float64 is exact).
// Shapes must match. This is the precision boundary of the f32
// inference path: event features cross it once per event, model weights
// once at construction.
func Convert[D, S fp.Float](dst *Matrix[D], src *Matrix[S]) {
	if dst.rows != src.rows || dst.cols != src.cols {
		panic(fmt.Sprintf("tensor: Convert shape mismatch %dx%d vs %dx%d", dst.rows, dst.cols, src.rows, src.cols))
	}
	for i, v := range src.data {
		dst.data[i] = D(v)
	}
}

// ConvertFrom returns a new arena-backed matrix with src converted to
// element type D (a nil arena allocates from the heap).
func ConvertFrom[D, S fp.Float](a *workspace.Arena, src *Matrix[S]) *Matrix[D] {
	dst := NewFromOf[D](a, src.rows, src.cols)
	Convert(dst, src)
	return dst
}
