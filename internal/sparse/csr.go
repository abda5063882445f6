// Package sparse implements the sparse matrix kernels that matrix-based
// bulk sampling (Figure 2 of the paper) is built from: COO/CSR storage,
// SpGEMM and SpMM products, row/column selection matrices, per-row
// nonzero sampling, and vertical stacking of selection matrices across
// minibatches.
//
// Storage and kernels are generic over the value element type
// (CSROf[T] for T in fp.Float); CSR aliases the float64 instantiation.
// The float64 surface — what the samplers and
// the training stack use — is unchanged from the pre-generic package.
package sparse

import (
	"sort"

	"repro/internal/fp"
	"repro/internal/workspace"
)

// CSROf is a compressed-sparse-row matrix with values of type T.
// RowPtr has length rows+1; ColIdx/Vals have length Nnz(). Within each
// row, column indices are strictly increasing.
type CSROf[T fp.Float] struct {
	RowsN, ColsN int
	RowPtr       []int
	ColIdx       []int
	Vals         []T
}

// CSR is the float64 CSR matrix — the sampler/training type and the
// element type of every historical API in this package.
type CSR = CSROf[float64]

// NewCSROf returns an empty rows×cols CSR matrix of the given element
// type.
func NewCSROf[T fp.Float](rows, cols int) *CSROf[T] {
	return &CSROf[T]{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
}

// Rows returns the row count.
func (m *CSROf[T]) Rows() int { return m.RowsN }

// Cols returns the column count.
func (m *CSROf[T]) Cols() int { return m.ColsN }

// Nnz returns the number of stored nonzeros.
func (m *CSROf[T]) Nnz() int { return len(m.ColIdx) }

// RowNnz returns the number of nonzeros in row i.
func (m *CSROf[T]) RowNnz(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Row returns the column indices and values of row i (views, not copies).
func (m *CSROf[T]) Row(i int) (cols []int, vals []T) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// At returns element (i, j) using binary search within the row.
func (m *CSROf[T]) At(i, j int) T {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Transpose returns mᵀ in CSR form.
func (m *CSROf[T]) Transpose() *CSROf[T] {
	out := &CSROf[T]{
		RowsN:  m.ColsN,
		ColsN:  m.RowsN,
		RowPtr: make([]int, m.ColsN+1),
		ColIdx: make([]int, m.Nnz()),
		Vals:   make([]T, m.Nnz()),
	}
	// Count entries per output row (input column).
	for _, c := range m.ColIdx {
		out.RowPtr[c+1]++
	}
	for i := 0; i < m.ColsN; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	next := append([]int(nil), out.RowPtr[:m.ColsN]...)
	for i := 0; i < m.RowsN; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			pos := next[c]
			out.ColIdx[pos] = i
			out.Vals[pos] = vals[k]
			next[c]++
		}
	}
	return out
}

// IncidenceInto builds into out the rows×len(idx) incidence matrix S
// with S[idx[e], e] = 1 — row v of S selects exactly the positions e
// whose idx[e] == v, so S×X computes the scatter-add aggregation
// out[v] = Σ_{e: idx[e]=v} X[e] as a row-parallel SpMM instead of a
// serial scatter. Column indices within each row are ascending e, which
// is precisely the order tensor.ScatterAddRows accumulates in, so the
// two aggregations are bitwise interchangeable.
//
// out's existing storage is reused when large enough (callers may
// pre-size it from an arena) and grown through the workspace pools
// otherwise; a one-row cursor scratch is borrowed from the pools for
// the counting sort. Returns out.
func IncidenceInto[T fp.Float](out *CSROf[T], rows int, idx []int) *CSROf[T] {
	m := len(idx)
	out.RowsN, out.ColsN = rows, m
	out.RowPtr = workspace.GrowInt(out.RowPtr, rows+1)
	out.ColIdx = workspace.GrowInt(out.ColIdx, m)
	out.Vals = workspace.GrowFloat(out.Vals, m)
	for i := range out.RowPtr {
		out.RowPtr[i] = 0
	}
	for _, v := range idx {
		out.RowPtr[v+1]++
	}
	for i := 0; i < rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	cursor := workspace.GetInt(rows)
	copy(cursor, out.RowPtr[:rows])
	for e, v := range idx {
		out.ColIdx[cursor[v]] = e
		cursor[v]++
	}
	workspace.PutInt(cursor)
	for i := range out.Vals {
		out.Vals[i] = 1
	}
	return out
}

// BlockDiag assembles matrices along the diagonal: the result has
// sum(rows)×sum(cols) shape with each input occupying its own block.
// ShaDow's sampled adjacency "with b disjoint components" is exactly this.
func BlockDiag[T fp.Float](ms ...*CSROf[T]) *CSROf[T] {
	rows, cols, nnz := 0, 0, 0
	for _, m := range ms {
		rows += m.RowsN
		cols += m.ColsN
		nnz += m.Nnz()
	}
	out := &CSROf[T]{
		RowsN:  rows,
		ColsN:  cols,
		RowPtr: make([]int, 0, rows+1),
		ColIdx: make([]int, 0, nnz),
		Vals:   make([]T, 0, nnz),
	}
	out.RowPtr = append(out.RowPtr, 0)
	colOff, nnzOff := 0, 0
	for _, m := range ms {
		for i := 1; i <= m.RowsN; i++ {
			out.RowPtr = append(out.RowPtr, nnzOff+m.RowPtr[i])
		}
		for _, c := range m.ColIdx {
			out.ColIdx = append(out.ColIdx, c+colOff)
		}
		out.Vals = append(out.Vals, m.Vals...)
		colOff += m.ColsN
		nnzOff += m.Nnz()
	}
	return out
}

// Release returns the matrix's storage to the workspace pools and leaves
// m empty. Only call it on matrices whose storage the caller exclusively
// owns (e.g. scratch CSRs filled by SpGEMMIntoCtx/GatherRowsInto); rows
// returned by Row alias that storage and must no longer be in use.
func (m *CSROf[T]) Release() {
	workspace.PutInt(m.RowPtr)
	workspace.PutInt(m.ColIdx)
	workspace.PutFloat(m.Vals)
	m.RowPtr, m.ColIdx, m.Vals = nil, nil, nil
	m.RowsN, m.ColsN = 0, 0
}

// Equal reports exact structural and numeric equality.
func (m *CSROf[T]) Equal(o *CSROf[T]) bool {
	if m.RowsN != o.RowsN || m.ColsN != o.ColsN || m.Nnz() != o.Nnz() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != o.ColIdx[i] || m.Vals[i] != o.Vals[i] {
			return false
		}
	}
	return true
}

// checkValid panics if the CSR invariants are violated (used in tests).
func (m *CSROf[T]) checkValid() {
	if len(m.RowPtr) != m.RowsN+1 {
		panic("sparse: RowPtr length")
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.RowsN] != len(m.ColIdx) {
		panic("sparse: RowPtr endpoints")
	}
	for i := 0; i < m.RowsN; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			panic("sparse: RowPtr not monotone")
		}
		cols, _ := m.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				panic("sparse: row columns not strictly increasing")
			}
		}
		for _, c := range cols {
			if c < 0 || c >= m.ColsN {
				panic("sparse: column out of range")
			}
		}
	}
}
