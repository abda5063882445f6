package sparse

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/fp"
	"repro/internal/tensor"
)

// This file holds the paper's general sparse-product formulation and the
// element access, comparison and dense conversion that tests compare the
// sparse kernels against. No program calls them: the sampler runs Q·A as
// GatherRowsInto and extracts subgraphs from edge lists.

// Rows returns the row count.
func (m *CSROf[T]) Rows() int { return m.RowsN }

// Cols returns the column count.
func (m *CSROf[T]) Cols() int { return m.ColsN }

// Nnz returns the number of stored nonzeros.
func (m *CSROf[T]) Nnz() int { return len(m.ColIdx) }

// At returns element (i, j) using binary search within the row.
func (m *CSROf[T]) At(i, j int) T {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
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

// SpGEMM computes the sparse-sparse product a×b into a freshly allocated
// CSR, serially, row by row (Gustavson): each output row accumulates in a
// dense scratch row, and its touched columns are stored in sorted order.
// Entries whose products cancel to exactly zero are stored explicitly.
func SpGEMM[T fp.Float](a, b *CSROf[T]) *CSROf[T] {
	if a.ColsN != b.RowsN {
		panic(fmt.Sprintf("sparse: SpGEMM inner dims %d vs %d", a.ColsN, b.RowsN))
	}
	out := &CSROf[T]{RowsN: a.RowsN, ColsN: b.ColsN, RowPtr: make([]int, a.RowsN+1)}
	acc := make([]T, b.ColsN)
	seen := make([]bool, b.ColsN)
	var touched []int
	for i := 0; i < a.RowsN; i++ {
		touched = touched[:0]
		aCols, aVals := a.Row(i)
		for k, ac := range aCols {
			bCols, bVals := b.Row(ac)
			for t, bc := range bCols {
				if !seen[bc] {
					seen[bc] = true
					touched = append(touched, bc)
				}
				acc[bc] += aVals[k] * bVals[t]
			}
		}
		slices.Sort(touched)
		for _, c := range touched {
			out.ColIdx = append(out.ColIdx, c)
			out.Vals = append(out.Vals, acc[c])
			acc[c], seen[c] = 0, false
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// RowSelection builds the k×n selection matrix with a single unit nonzero
// per row at column idx[i]. Multiplying RowSelection(idx, n) × A extracts
// rows idx of A — the Q matrices of matrix-based sampling are exactly
// these.
func RowSelection(idx []int, n int) *CSR {
	out := &CSR{
		RowsN:  len(idx),
		ColsN:  n,
		RowPtr: make([]int, len(idx)+1),
		ColIdx: make([]int, len(idx)),
		Vals:   make([]float64, len(idx)),
	}
	for i, j := range idx {
		if j < 0 || j >= n {
			panic(fmt.Sprintf("sparse: selection index %d outside [0,%d)", j, n))
		}
		out.RowPtr[i+1] = i + 1
		out.ColIdx[i] = j
		out.Vals[i] = 1
	}
	return out
}

// ExtractSubmatrix returns A[idx, idx] computed with the paper's
// row-and-column-selection SpGEMM formulation: R·A·Rᵀ where R is the
// RowSelection matrix of idx. Output row/column i corresponds to vertex
// idx[i].
func ExtractSubmatrix(a *CSR, idx []int) *CSR {
	r := RowSelection(idx, a.RowsN)
	return SpGEMM(SpGEMM(r, a), r.Transpose())
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
