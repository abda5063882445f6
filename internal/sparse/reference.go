package sparse

import (
	"sort"

	"repro/internal/tensor"
)

// This file holds the element access and dense conversion that tests
// compare the sparse kernels against. No program calls them.

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
