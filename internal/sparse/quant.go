package sparse

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// This file holds the int8 sparse kernels the kernel ledger times (the
// Int8 serving path runs float32): an int8-valued CSR container and the
// incidence/weighted SpMM whose products accumulate in int32 with
// dequantization and requantization fused into the epilogue. Integer
// accumulation is exact and rows partition statically, so every kernel
// here is bitwise identical at any worker count.

// QCSR is a compressed-sparse-row matrix with int8 values and one
// symmetric per-tensor scale: real value ≈ float32(q)·Scale. A nil Vals
// means every stored entry is exactly 1 (Scale 1) — the incidence-
// matrix form the GNN aggregation uses, which skips the value stream
// entirely.
type QCSR struct {
	RowsN, ColsN int
	RowPtr       []int
	ColIdx       []int
	Vals         []int8
	Scale        float32
}

// effScale returns the dequantization factor of m's values (1 for the
// implicit-ones incidence form).
func (m *QCSR) effScale() float32 {
	if m.Vals == nil {
		return 1
	}
	return m.Scale
}

// QIncidenceInto builds the rows×len(idx) incidence matrix into out in
// the implicit-ones form (Vals nil): the same counting sort as
// IncidenceInto without materializing a value stream at all — the int8
// aggregation reads one byte per gathered element and zero bytes of
// matrix values. Storage is reused/grown through the workspace pools.
func QIncidenceInto(out *QCSR, rows int, idx []int) *QCSR {
	m := len(idx)
	out.RowsN, out.ColsN = rows, m
	out.Vals, out.Scale = nil, 1
	out.RowPtr = workspace.GrowInt(out.RowPtr, rows+1)
	out.ColIdx = workspace.GrowInt(out.ColIdx, m)
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
	return out
}

// qspmmCtx carries the QSpMMQuantInto operands into capture-free
// parallel bodies.
type qspmmCtx struct {
	out *tensor.QMat
	a   *QCSR
	x   *tensor.QMat
}

// QSpMMQuantInto computes out = requant(a×x): int8×int8 products
// accumulate in int32 per output element and the epilogue dequantizes
// to float32(acc)·aScale·x.Scale and requantizes at outScale in the same
// pass, so the int32 row never round-trips through memory. out must
// have shape a.RowsN × x.Cols() and must not alias x's storage.
// Zero-alloc steady state; bitwise identical at every worker count.
func QSpMMQuantInto(kc kernels.Context, out *tensor.QMat, a *QCSR, x *tensor.QMat, outScale float32) *tensor.QMat {
	checkQSpMM(a, x, out.Rows(), out.Cols(), "QSpMMQuantInto")
	if !(outScale > 0) {
		panic(fmt.Sprintf("sparse: QSpMMQuantInto scale %v", outScale))
	}
	out.Scale = outScale
	parallel.ForWithN(kc.Cap(), a.RowsN, 32, qspmmCtx{out: out, a: a, x: x}, qspmmBody)
	return out
}

func checkQSpMM(a *QCSR, x *tensor.QMat, outRows, outCols int, op string) {
	if a.ColsN != x.Rows() {
		panic(fmt.Sprintf("sparse: %s inner dims %d vs %d", op, a.ColsN, x.Rows()))
	}
	if outRows != a.RowsN || outCols != x.Cols() {
		panic(fmt.Sprintf("sparse: %s output shape mismatch", op))
	}
}

// qspmmBody computes rows [lo, hi) of the quantized SpMM: per-row int32
// accumulation in pooled scratch, then the fused dequantize +
// requantize epilogue.
func qspmmBody(cx qspmmCtx, lo, hi int) {
	a, x := cx.a, cx.x
	c := x.Cols()
	acc := workspace.GetI32(c)
	dq := cx.a.effScale() * x.Scale
	for i := lo; i < hi; i++ {
		for j := range acc {
			acc[j] = 0
		}
		rlo, rhi := a.RowPtr[i], a.RowPtr[i+1]
		if a.Vals == nil {
			for _, col := range a.ColIdx[rlo:rhi] {
				xRow := x.Row(col)
				for j, xv := range xRow {
					acc[j] += int32(xv)
				}
			}
		} else {
			for k, col := range a.ColIdx[rlo:rhi] {
				v := int32(a.Vals[rlo+k])
				xRow := x.Row(col)
				for j, xv := range xRow {
					acc[j] += v * int32(xv)
				}
			}
		}
		oRow := cx.out.Row(i)
		outScale := float64(cx.out.Scale)
		for j, s := range acc {
			f := float64(float32(s) * dq)
			r := math.Round(f / outScale)
			if r > 127 {
				r = 127
			} else if r < -127 {
				r = -127
			}
			oRow[j] = int8(r)
		}
	}
	workspace.PutI32(acc)
}
