package tensor

import (
	"fmt"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/parallel"
)

// This file holds two fused kernels: edge-feature gather+concat in one
// pass and bias+ReLU in one pass. Each performs exactly the arithmetic
// of its unfused composition in the same order, so outputs are bitwise
// identical to the chain it replaces — the fusion only removes the
// intermediate materialization (one full write + read of each
// intermediate matrix). Neither runs on the GNN's hot paths any more:
// the segmented GEMM (tiled.go) reads concatenations in place and folds
// bias and ReLU into its store. They remain the references the GEMM is
// tested against and the kernels the benchmark's kernel rows time.

// AddBiasReLUIntoCtx computes out = max(0, m + bias) in one pass,
// fusing AddBiasIntoCtx + ReLU: the sum never round-trips through memory.
// bias is a 1×cols row vector; out may alias m. Bitwise identical at
// every worker count.
func AddBiasReLUIntoCtx[T fp.Float](kc kernels.Context, out, m, bias *Matrix[T]) {
	if bias.rows != 1 || bias.cols != m.cols {
		panic(fmt.Sprintf("tensor: AddBiasReLU bias %dx%d vs matrix cols %d", bias.rows, bias.cols, m.cols))
	}
	checkSame("AddBiasReLUInto", out, m)
	parallel.ForWithN(kc.Cap(), m.rows, 64, matCtx[T]{out, m, bias},
		pickBody[T, matCtx[T]](addBiasReLUBody64, addBiasReLUBody32))
}

// addBiasReLUBody computes rows [lo, hi) of out = max(0, m + bias).
func addBiasReLUBody[T fp.Float](c matCtx[T], lo, hi int) {
	out, m, b := c.out, c.a, c.b
	for i := lo; i < hi; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		oRow := out.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s := v + b.data[j]
			if s > 0 {
				oRow[j] = s
			} else {
				oRow[j] = 0
			}
		}
	}
}

// gcSegment is one segment of a fused gather+concat: rows of M, taken
// directly (Idx nil) or gathered at Idx.
type gcSegment[T fp.Float] struct {
	m   *Matrix[T]
	idx []int
}

func (s gcSegment[T]) rowsOut() int {
	if s.idx != nil {
		return len(s.idx)
	}
	return s.m.rows
}

// gc3Ctx carries GatherConcat3IntoCtx operands into capture-free
// parallel bodies.
type gc3Ctx[T fp.Float] struct {
	out     *Matrix[T]
	a, b, c gcSegment[T]
}

// GatherConcat3IntoCtx fuses the gather+concat chain of the
// edge-feature assembly: out[i] = [rowA(i) ‖ rowB(i) ‖ rowC(i)], where
// each segment's row i is m.Row(idx[i]) when its idx is non-nil and
// m.Row(i) otherwise. One pass writes each output row in place — the
// per-segment gathered matrices and the concat intermediate are never
// materialized, cutting the chain's memory traffic roughly in half. out
// must not alias any input. Bitwise identical at every worker count.
//
// This covers both hot shapes in the pipeline: the Interaction GNN's
// message input [Y' ‖ X'[src] ‖ X'[dst]] and the edge filter's
// [X[src] ‖ X[dst] ‖ EdgeFeat].
func GatherConcat3IntoCtx[T fp.Float](kc kernels.Context, out, a *Matrix[T], aIdx []int, b *Matrix[T], bIdx []int, c *Matrix[T], cIdx []int) {
	segA, segB, segC := gcSegment[T]{a, aIdx}, gcSegment[T]{b, bIdx}, gcSegment[T]{c, cIdx}
	rows := segA.rowsOut()
	if segB.rowsOut() != rows || segC.rowsOut() != rows {
		panic(fmt.Sprintf("tensor: GatherConcat3 row mismatch %d/%d/%d",
			rows, segB.rowsOut(), segC.rowsOut()))
	}
	if out.rows != rows || out.cols != a.cols+b.cols+c.cols {
		panic("tensor: GatherConcat3Into output shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), rows, 64, gc3Ctx[T]{out, segA, segB, segC},
		pickBody[T, gc3Ctx[T]](gatherConcat3Body64, gatherConcat3Body32))
}

// gatherConcat3Body writes rows [lo, hi) of the fused gather+concat.
func gatherConcat3Body[T fp.Float](cx gc3Ctx[T], lo, hi int) {
	out := cx.out
	for i := lo; i < hi; i++ {
		off := i * out.cols
		for _, seg := range [3]gcSegment[T]{cx.a, cx.b, cx.c} {
			src := i
			if seg.idx != nil {
				src = seg.idx[i]
			}
			copy(out.data[off:off+seg.m.cols], seg.m.data[src*seg.m.cols:(src+1)*seg.m.cols])
			off += seg.m.cols
		}
	}
}
