package sparse

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/workspace"
)

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

// GatherRowsInto writes into out the matrix whose i-th row is m's row
// idx[i]. This is the specialized Q·A product for a row-selection matrix
// Q with one unit nonzero per row — the structure the sampling Q
// matrices always have — and avoids the general SpGEMM accumulator;
// equivalence with SpGEMM(RowSelection(idx, n), A) is covered by tests.
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

// ExtractSubmatrix returns A[idx, idx] computed with the paper's
// row-and-column-selection SpGEMM formulation: R·A·Rᵀ where R is the
// RowSelection matrix of idx. Output row/column i corresponds to vertex
// idx[i].
func ExtractSubmatrix(a *CSR, idx []int) *CSR {
	r := RowSelection(idx, a.RowsN)
	return SpGEMM(SpGEMM(r, a), r.Transpose())
}

// SampleRowsResult is the output of SampleRowsStreams: for each input
// row, the sampled column indices.
type SampleRowsResult struct {
	Samples [][]int
}

// SampleRowsStreams draws up to s distinct nonzero column indices
// uniformly from each row of m; rows with ≤ s nonzeros return all of
// them. Row i draws from rowRand[i]. Rows sharing a generator are processed in row order,
// so a caller that routes every row of one logical stream (e.g. one
// ShaDow batch vertex) through the same generator gets draw sequences
// that do not depend on which other rows are stacked into the matrix —
// the property bulk sampling needs for results independent of batch
// stacking and rank sharding.
//
// This implements the "divide each row by its sum to get a uniform
// distribution and sample s neighbors" step of matrix-based ShaDow: for
// boolean adjacency rows, normalizing and sampling s times without
// replacement is exactly uniform sampling of s distinct neighbors.
func SampleRowsStreams(m *CSR, s int, rowRand []*rng.Rand) *SampleRowsResult {
	if len(rowRand) != m.RowsN {
		panic("sparse: SampleRowsStreams wants one generator per row")
	}
	out := &SampleRowsResult{Samples: make([][]int, m.RowsN)}
	for i := 0; i < m.RowsN; i++ {
		cols, _ := m.Row(i)
		if len(cols) <= s {
			out.Samples[i] = append([]int(nil), cols...)
			continue
		}
		picks := rowRand[i].SampleWithoutReplacement(len(cols), s)
		sel := make([]int, len(picks))
		for k, p := range picks {
			sel[k] = cols[p]
		}
		out.Samples[i] = sel
	}
	return out
}
