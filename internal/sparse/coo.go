package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format sparse matrix. Entries may be unsorted and
// may contain duplicates until ToCSR, which sorts and sums them.
type COO struct {
	RowsN, ColsN int
	RowIdx       []int
	ColIdx       []int
	Vals         []float64
}

// NewCOO returns an empty rows×cols COO matrix.
func NewCOO(rows, cols int) *COO {
	return &COO{RowsN: rows, ColsN: cols}
}

// Add appends entry (i, j, v).
func (m *COO) Add(i, j int, v float64) {
	if i < 0 || i >= m.RowsN || j < 0 || j >= m.ColsN {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) outside %dx%d", i, j, m.RowsN, m.ColsN))
	}
	m.RowIdx = append(m.RowIdx, i)
	m.ColIdx = append(m.ColIdx, j)
	m.Vals = append(m.Vals, v)
}

// Nnz returns the stored entry count (duplicates included).
func (m *COO) Nnz() int { return len(m.Vals) }

// ToCSR converts to CSR, sorting rows and summing duplicate coordinates.
func (m *COO) ToCSR() *CSR {
	type entry struct {
		r, c int
		v    float64
	}
	entries := make([]entry, m.Nnz())
	for k := range m.Vals {
		entries[k] = entry{m.RowIdx[k], m.ColIdx[k], m.Vals[k]}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].r != entries[b].r {
			return entries[a].r < entries[b].r
		}
		return entries[a].c < entries[b].c
	})
	out := &CSR{RowsN: m.RowsN, ColsN: m.ColsN, RowPtr: make([]int, m.RowsN+1)}
	for k := 0; k < len(entries); {
		e := entries[k]
		sum := 0.0
		for k < len(entries) && entries[k].r == e.r && entries[k].c == e.c {
			sum += entries[k].v
			k++
		}
		out.ColIdx = append(out.ColIdx, e.c)
		out.Vals = append(out.Vals, sum)
		out.RowPtr[e.r+1] = len(out.ColIdx)
	}
	for i := 0; i < m.RowsN; i++ {
		if out.RowPtr[i+1] == 0 {
			out.RowPtr[i+1] = out.RowPtr[i]
		}
	}
	return out
}

// FromEdges builds an n×n CSR adjacency matrix from an edge list with all
// values 1. If symmetric, each edge is inserted in both directions.
// Self-loops and duplicate edges collapse to a single unit entry.
func FromEdges(n int, src, dst []int, symmetric bool) *CSR {
	if len(src) != len(dst) {
		panic("sparse: FromEdges src/dst length mismatch")
	}
	coo := NewCOO(n, n)
	for k := range src {
		coo.Add(src[k], dst[k], 1)
		if symmetric && src[k] != dst[k] {
			coo.Add(dst[k], src[k], 1)
		}
	}
	csr := coo.ToCSR()
	// Clamp duplicate-summed values back to 1 (adjacency is boolean).
	for i := range csr.Vals {
		csr.Vals[i] = 1
	}
	return csr
}
