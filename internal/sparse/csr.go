// Package sparse implements the sparse matrix kernels that matrix-based
// bulk sampling (Figure 2 of the paper) and the GNN run: CSR storage
// built from edge lists, the row gather that computes the sampler's
// selection product Q·A, per-row nonzero sampling, and the SpMM message
// aggregation. The paper's general SpGEMM and selection-matrix
// extraction (R·A·Rᵀ) are kept in reference.go as the oracle the tests
// hold the row gather and the sampler's edge-list extraction to.
//
// Storage and kernels are generic over the value element type
// (CSROf[T] for T in fp.Float); CSR aliases the float64 instantiation.
// The float64 surface — what the samplers and
// the training stack use — is unchanged from the pre-generic package.
package sparse

import (
	"fmt"
	"slices"

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

// RowNnz returns the number of nonzeros in row i.
func (m *CSROf[T]) RowNnz(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Row returns the column indices and values of row i (views, not copies).
func (m *CSROf[T]) Row(i int) (cols []int, vals []T) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// FromEdges builds an n×n CSR adjacency matrix from an edge list with all
// values 1. If symmetric, each edge is inserted in both directions.
// Self-loops and duplicate edges collapse to a single unit entry. It
// counts the entries of each row, places them, then sorts each row and
// drops its repeated columns in place.
func FromEdges(n int, src, dst []int, symmetric bool) *CSR {
	if len(src) != len(dst) {
		panic("sparse: FromEdges src/dst length mismatch")
	}
	out := &CSR{RowsN: n, ColsN: n, RowPtr: make([]int, n+1)}
	for k, s := range src {
		d := dst[k]
		if s < 0 || s >= n || d < 0 || d >= n {
			panic(fmt.Sprintf("sparse: FromEdges edge (%d,%d) outside %dx%d", s, d, n, n))
		}
		out.RowPtr[s+1]++
		if symmetric && s != d {
			out.RowPtr[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	cols := make([]int, out.RowPtr[n])
	next := slices.Clone(out.RowPtr[:n])
	for k, s := range src {
		d := dst[k]
		cols[next[s]] = d
		next[s]++
		if symmetric && s != d {
			cols[next[d]] = s
			next[d]++
		}
	}
	// Compact row by row: the write cursor w never passes the row being
	// read, so the unique sorted columns move down in place.
	w, lo := 0, 0
	for i := 0; i < n; i++ {
		hi := out.RowPtr[i+1]
		row := cols[lo:hi]
		slices.Sort(row)
		for k, c := range row {
			if k == 0 || c != row[k-1] {
				cols[w] = c
				w++
			}
		}
		out.RowPtr[i+1] = w
		lo = hi
	}
	out.ColIdx = cols[:w]
	out.Vals = make([]float64, w)
	for i := range out.Vals {
		out.Vals[i] = 1
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

// Release returns the matrix's storage to the workspace pools and leaves
// m empty. Only call it on matrices whose storage the caller exclusively
// owns (e.g. scratch CSRs filled by GatherRowsInto); rows
// returned by Row alias that storage and must no longer be in use.
func (m *CSROf[T]) Release() {
	workspace.PutInt(m.RowPtr)
	workspace.PutInt(m.ColIdx)
	workspace.PutFloat(m.Vals)
	m.RowPtr, m.ColIdx, m.Vals = nil, nil, nil
	m.RowsN, m.ColsN = 0, 0
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
