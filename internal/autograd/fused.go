package autograd

import (
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// This file records the fused tape ops: Linear, every layer of every
// MLP, and AggregateRows, the GNN's message aggregation. Each one
// computes exactly the arithmetic of the unfused chain it replaces, in
// the same order, so losses and gradients are bitwise identical to the
// composed ops — the fusion removes intermediate materializations (and
// their tape nodes) in both the forward and backward passes.

// Seg is one column segment of Linear's virtual input: row i of the
// segment is N.Value.Row(Idx[i]) when Idx is non-nil (gathered) and
// N.Value.Row(i) otherwise (direct), as in tensor.Seg.
type Seg struct {
	N   *Node
	Idx []int
}

// Linear records one affine layer over a virtual concatenation,
// out = [seg₀ ‖ seg₁ ‖ …]·w + b, with ReLU applied when relu is set: the
// chain ConcatCols/GatherRows → MatMul → AddBias (→ ReLU) in one node
// whose output is the only buffer it stores. The forward is one
// tensor.MatMulSegsIntoCtx call with the bias (and ReLU) folded into the
// GEMM's store. The backward, from dOut = out's gradient:
//   - with relu set, masks dOut in place where the stored activation is
//     +0, in the same pass that adds the bias gradient's column sums in
//     ColSumsInto's ascending-row order;
//   - per segment j, computes dOut·W_jᵀ against w's rows for that
//     segment. A direct segment adopts it as its gradient. A gathered one
//     scatter-adds it, in ascending row order, into a fresh zeroed buffer
//     of the parent's shape, which is then accumulated;
//   - per segment j, computes W_j's gradient rows as segⱼᵀ·dOut, a
//     gathered segment being gathered into a transient buffer first.
//
// Every element is the one the unfused chain computes, so gradients are
// bitwise those of the composed ops. One node passed as several segments
// receives their contributions in segment order. At most tensor.MaxSegs
// segments; they must agree on the row count and their widths must sum
// to w's rows. b is a 1×w.cols row vector.
func (t *Tape) Linear(w, b *Node, relu bool, segs ...Seg) *Node {
	if len(segs) == 0 || len(segs) > tensor.MaxSegs {
		panic(fmt.Sprintf("autograd: Linear takes 1 to %d segments, got %d", tensor.MaxSegs, len(segs)))
	}
	var ts [tensor.MaxSegs]tensor.Seg[float64]
	need := w.needGrad || b.needGrad
	for i, s := range segs {
		ts[i] = tensor.Seg[float64]{M: s.N.Value, Idx: s.Idx}
		need = need || s.N.needGrad
	}
	v := t.alloc(ts[0].Rows(), w.Value.Cols())
	tensor.MatMulSegsIntoCtx(t.kc, v, w.Value, b.Value, relu, ts[:len(segs)]...)
	if !need {
		return t.newNode(v, false, nil)
	}
	// The segments live in the op's fixed array, so the backward closure
	// holds no slice of the caller's.
	op := &linearOp{w: w, b: b, relu: relu, nseg: len(segs)}
	copy(op.segs[:], segs)
	op.out = t.newNode(v, true, op.backward)
	return op.out
}

// linearOp is what one Linear node keeps for its backward pass:
// references to its operands and its output, nothing materialised.
type linearOp struct {
	w, b *Node
	relu bool
	segs [tensor.MaxSegs]Seg
	nseg int
	out  *Node
	// wRows and tmp are the backward's per-segment matrix headers — a
	// view of rows of w or of its gradient, and a transient buffer —
	// held here so that no segment heap-allocates one.
	wRows, tmp tensor.Dense
}

func (op *linearOp) backward() {
	t, dOut := op.out.tp, op.out.grad
	rows, n := dOut.Rows(), dOut.Cols()
	if op.relu || op.b.needGrad {
		gb := t.alloc(1, n)
		maskColSums(dOut, op.out.Value, gb, op.relu)
		if op.b.needGrad {
			op.b.accumOwned(gb)
		}
	}
	w := op.w.Value
	off := 0
	for _, s := range op.segs[:op.nseg] {
		wj := s.N.Value.Cols()
		if s.N.needGrad {
			op.wRows = *w.SliceRows(off, off+wj)
			if s.Idx == nil {
				g := t.alloc(rows, wj)
				tensor.MatMulTIntoCtx(t.kc, g, dOut, &op.wRows)
				s.N.accumOwned(g)
			} else {
				op.tmp = scratch(rows, wj)
				tensor.MatMulTIntoCtx(t.kc, &op.tmp, dOut, &op.wRows)
				g := t.alloc(s.N.Value.Rows(), wj)
				tensor.ScatterAddRows(g, &op.tmp, s.Idx)
				workspace.PutF64(op.tmp.Data())
				s.N.accumOwned(g)
			}
		}
		off += wj
	}
	if op.w.needGrad {
		dW := t.alloc(w.Rows(), n)
		off = 0
		for _, s := range op.segs[:op.nseg] {
			wj := s.N.Value.Cols()
			op.wRows = *dW.SliceRows(off, off+wj)
			if s.Idx == nil {
				tensor.TMatMulIntoCtx(t.kc, &op.wRows, s.N.Value, dOut)
			} else {
				op.tmp = scratch(rows, wj)
				tensor.GatherRowsIntoCtx(t.kc, &op.tmp, s.N.Value, s.Idx)
				tensor.TMatMulIntoCtx(t.kc, &op.wRows, &op.tmp, dOut)
				workspace.PutF64(op.tmp.Data())
			}
			off += wj
		}
		op.w.accumOwned(dW)
	}
}

// maskColSums is Linear's bias and ReLU backward in one pass over dOut.
// With relu set it zeroes dOut wherever the stored activation v is +0.
// A ReLU output is +0 or positive, never -0 or NaN, so its bits are zero
// exactly where the unit was off, and -bits>>63 is the all-ones mask
// where it was on: the mask takes no branch on the data, and a masked
// element is +0, the value the unfused ReLU backward writes. Each masked
// row is then added into gb, a zeroed 1×cols row, in ascending row
// order — ColSumsInto's arithmetic.
func maskColSums(dOut, v, gb *tensor.Dense, relu bool) {
	n := dOut.Cols()
	if n == 0 {
		return
	}
	d, vd, s := dOut.Data(), v.Data(), gb.Data()
	for off := 0; off < len(d); off += n {
		row := d[off : off+n]
		if relu {
			for j, x := range vd[off : off+n] {
				row[j] = math.Float64frombits(math.Float64bits(row[j]) & uint64(-int64(math.Float64bits(x))>>63))
			}
		}
		for j, g := range row {
			s[j] += g
		}
	}
}

// scratch returns a zeroed rows×cols matrix on pooled storage that
// lives only within one backward closure: the caller returns it with
// workspace.PutF64, so transient buffers do not grow the tape's arena.
func scratch(rows, cols int) tensor.Dense {
	return *tensor.FromSlice(rows, cols, workspace.GetF64(rows*cols))
}

// AggregateRows is ScatterAddRows with a parallel forward: it builds
// the incidence matrix S (S[idx[e], e] = 1) from the tape's arena and
// computes out = S×x as a row-partitioned SpMM, so the AGG step of
// message passing scales across cores instead of running one serial
// scatter. Per output row the SpMM accumulates in ascending e — the
// exact order ScatterAddRows adds in — so the result is bitwise
// identical to t.ScatterAddRows(x, idx, outRows) at every worker count.
//
// Backward gathers the incoming gradient back to each source row
// (parallel); when the source already holds a gradient (x feeding both
// endpoint aggregations), the gather and the accumulation fuse into one
// in-place SpMMAdd pass over a one-nonzero-per-row gather matrix.
func (t *Tape) AggregateRows(x *Node, idx []int, outRows int) *Node {
	m := len(idx)
	cols := x.Value.Cols()
	for _, v := range idx {
		if v < 0 || v >= outRows {
			panic(fmt.Sprintf("autograd: AggregateRows index %d out of %d rows", v, outRows))
		}
	}
	v := t.alloc(outRows, cols)
	s := &sparse.CSR{
		RowPtr: t.allocInt(outRows + 1),
		ColIdx: t.allocInt(m),
		Vals:   t.allocF64(m),
	}
	sparse.IncidenceInto(s, outRows, idx)
	sparse.SpMMIntoCtx(t.kc, v, s, x.Value)
	var out *Node
	out = t.newNode(v, x.needGrad, func() {
		if !x.needGrad {
			return
		}
		if x.grad == nil {
			g := t.alloc(m, cols)
			tensor.GatherRowsIntoCtx(t.kc, g, out.grad, idx)
			x.accumOwned(g)
			return
		}
		// Fused gather + accumulate: x.grad[e] += out.grad[idx[e]] in one
		// parallel pass. The gather matrix has exactly row e → (idx[e], 1),
		// and SpMMAdd may write in place over its residual.
		gather := &sparse.CSR{
			RowsN:  m,
			ColsN:  outRows,
			RowPtr: t.allocInt(m + 1),
			ColIdx: idx,
			Vals:   t.allocF64(m),
		}
		for i := range gather.RowPtr {
			gather.RowPtr[i] = i
		}
		for i := range gather.Vals {
			gather.Vals[i] = 1
		}
		sparse.SpMMAddIntoCtx(t.kc, x.grad, gather, out.grad, x.grad)
	})
	if !x.needGrad {
		out.back = nil
	}
	return out
}
