package autograd

import (
	"fmt"

	"repro/internal/sparse"
	"repro/internal/tensor"
)

// This file records the fused tape ops. Each one computes exactly the
// arithmetic of the unfused chain it replaces, in the same order, so
// losses and gradients are bitwise identical to the composed ops — the
// fusion removes intermediate materializations (and their tape nodes)
// in both the forward and backward passes.

// AddBiasReLU computes max(0, a + bias) in one pass, fusing
// AddBias + ReLU — the hidden-layer chain of every MLP block. bias is
// a 1×cols row vector. Backward masks the incoming gradient by the
// activation sign once and feeds both parents from that single pass.
func (t *Tape) AddBiasReLU(a, bias *Node) *Node {
	rows, cols := a.Value.Rows(), a.Value.Cols()
	v := t.alloc(rows, cols)
	tensor.AddBiasReLUIntoCtx(t.kc, v, a.Value, bias.Value)
	need := a.needGrad || bias.needGrad
	var out *Node
	out = t.newNode(v, need, func() {
		og := out.grad
		if a.needGrad {
			g := t.alloc(rows, cols)
			vd, gd, ogd := v.Data(), g.Data(), og.Data()
			for i := range gd {
				if vd[i] > 0 {
					gd[i] = ogd[i]
				}
			}
			if bias.needGrad {
				gb := t.alloc(1, cols)
				g.ColSumsInto(gb)
				bias.accumOwned(gb)
			}
			a.accumOwned(g)
			return
		}
		if bias.needGrad {
			gb := t.alloc(1, cols)
			vd, ogd, gbd := v.Data(), og.Data(), gb.Data()
			for i := 0; i < rows; i++ {
				off := i * cols
				for j := 0; j < cols; j++ {
					if vd[off+j] > 0 {
						gbd[j] += ogd[off+j]
					}
				}
			}
			bias.accumOwned(gb)
		}
	})
	if !need {
		out.back = nil
	}
	return out
}

// GatherConcat3 fuses ConcatCols over three segments, each either a
// node's rows taken directly (idx nil) or gathered at idx:
// out[i] = [A(i) ‖ B(i) ‖ C(i)]. This is the edge-feature assembly of
// the Interaction GNN ([Y' ‖ X'[src] ‖ X'[dst]]) and the edge filter
// ([X[src] ‖ X[dst] ‖ E]) — one pass instead of two gathers plus a
// concat. Backward extracts each segment's column band straight out of
// the incoming gradient: direct segments copy it, gathered segments
// scatter-add it into the parent's shape.
func (t *Tape) GatherConcat3(a *Node, aIdx []int, b *Node, bIdx []int, c *Node, cIdx []int) *Node {
	rows := len(aIdx)
	if aIdx == nil {
		rows = a.Value.Rows()
	}
	v := t.alloc(rows, a.Value.Cols()+b.Value.Cols()+c.Value.Cols())
	tensor.GatherConcat3IntoCtx(t.kc, v, a.Value, aIdx, b.Value, bIdx, c.Value, cIdx)
	need := a.needGrad || b.needGrad || c.needGrad
	var out *Node
	out = t.newNode(v, need, func() {
		og := out.grad
		off := 0
		for _, seg := range [3]struct {
			n   *Node
			idx []int
		}{{a, aIdx}, {b, bIdx}, {c, cIdx}} {
			w := seg.n.Value.Cols()
			if seg.n.needGrad {
				if seg.idx == nil {
					g := t.alloc(rows, w)
					tensor.ExtractColsInto(g, og, off)
					seg.n.accumOwned(g)
				} else {
					g := t.alloc(seg.n.Value.Rows(), w)
					tensor.ScatterAddRowsBand(g, og, off, seg.idx)
					seg.n.accumOwned(g)
				}
			}
			off += w
		}
	})
	if !need {
		out.back = nil
	}
	return out
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
