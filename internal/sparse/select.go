package sparse

import (
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/workspace"
)

// GatherRowsInto writes into out the matrix whose i-th row is m's row
// idx[i]. This is the specialized Q·A product for a row-selection matrix
// Q with one unit nonzero per row — the structure the sampling Q
// matrices always have — and needs no product accumulator; tests hold
// it to the reference SpGEMM(RowSelection(idx, n), A) (reference.go).
// out's storage is reused when large enough and grown through the
// workspace pools otherwise — this is how the bulk sampler reuses one
// Q·A product matrix across all k stacked minibatches and all walk
// depths. out must not alias m. Returns out.
func GatherRowsInto(out *CSR, m *CSR, idx []int) *CSR {
	if out == m {
		panic("sparse: GatherRowsInto output aliases input")
	}
	out.RowsN, out.ColsN = len(idx), m.ColsN
	out.RowPtr = workspace.GrowInt(out.RowPtr, len(idx)+1)
	out.RowPtr[0] = 0
	nnz := 0
	for i, r := range idx {
		nnz += m.RowNnz(r)
		out.RowPtr[i+1] = nnz
	}
	out.ColIdx = workspace.GrowInt(out.ColIdx, nnz)
	out.Vals = workspace.GrowF64(out.Vals, nnz)
	type gatherCtx struct {
		out, m *CSR
		idx    []int
	}
	parallel.ForWith(len(idx), 256, gatherCtx{out, m, idx}, func(c gatherCtx, lo, hi int) {
		out, m := c.out, c.m
		for i := lo; i < hi; i++ {
			cols, vals := m.Row(c.idx[i])
			copy(out.ColIdx[out.RowPtr[i]:out.RowPtr[i+1]], cols)
			copy(out.Vals[out.RowPtr[i]:out.RowPtr[i+1]], vals)
		}
	})
	return out
}

// SampleRowsStreams draws up to s distinct nonzero column indices
// uniformly from each row of m and returns them per row; rows with ≤ s
// nonzeros return all of them. Row i draws from rowRand[i]. Rows sharing
// a generator are processed in row order, so a caller that routes every
// row of one logical stream (e.g. one ShaDow batch vertex) through the
// same generator gets draw sequences that do not depend on which other
// rows are stacked into the matrix — the property bulk sampling needs
// for results independent of batch stacking and rank sharding.
//
// This implements the "divide each row by its sum to get a uniform
// distribution and sample s neighbors" step of matrix-based ShaDow: for
// boolean adjacency rows, normalizing and sampling s times without
// replacement is exactly uniform sampling of s distinct neighbors.
func SampleRowsStreams(m *CSR, s int, rowRand []*rng.Rand) [][]int {
	if len(rowRand) != m.RowsN {
		panic("sparse: SampleRowsStreams wants one generator per row")
	}
	out := make([][]int, m.RowsN)
	for i := 0; i < m.RowsN; i++ {
		cols, _ := m.Row(i)
		if len(cols) <= s {
			out[i] = append([]int(nil), cols...)
			continue
		}
		picks := rowRand[i].SampleWithoutReplacement(len(cols), s)
		sel := make([]int, len(picks))
		for k, p := range picks {
			sel[k] = cols[p]
		}
		out[i] = sel
	}
	return out
}
