package tensor

import (
	"fmt"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/parallel"
)

// This file holds the fused edge-feature gather+concat: it performs
// exactly the arithmetic of the GatherRows + ConcatColsRef chain in the
// same order, so its output is bitwise that chain's, without
// materializing the intermediate matrices. It does not run on the GNN's
// hot paths any more: the segmented GEMM (tiled.go) reads
// concatenations in place. It remains the reference the GEMM is tested
// against and the kernel the benchmark's kernel row times.

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
