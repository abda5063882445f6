package tensor

import (
	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/workspace"
)

// This file is the int8 twin of tiled.go: the weight matrix packs into
// 4-column int8 panels and an MR×4 micro-kernel accumulates MR output
// rows in int32 registers, applying the fused dequantize + bias (+ ReLU
// + requantize) epilogue per 4-column block at store time. Integer
// accumulation is exact and the epilogue is elementwise, so the result
// is bitwise identical at any worker count.

// qgemmMR (1, 2 or 4) and qgemmJB are the int8 micro-kernel height and
// column-block width in output columns (see gemmMR / gemmJB in
// tiled.go).
const (
	qgemmMR = 4
	qgemmJB = 256
)

// qtileCtx carries the packed int8 GEMM operands into capture-free
// parallel bodies.
type qtileCtx struct {
	qgemmCtx
	wp []int8 // w packed into 4-column panels, zero-padded
}

// qgemmTiled runs the packed int8 GEMM for the fused epilogue carried
// by c. Steady-state calls perform no heap allocation.
func qgemmTiled(kc kernels.Context, c qgemmCtx) {
	n, k := c.w.cols, c.a.cols
	np := (n + 3) / 4
	wp := workspace.GetI8(np * 4 * k)
	packPanelsI8(wp, c.w.data, k, n)
	parallel.ForWithN(kc.Cap(), c.a.rows, qmatmulGrain,
		qtileCtx{qgemmCtx: c, wp: wp}, qgemmTiledBody)
	workspace.PutI8(wp)
}

// packPanelsI8 packs the row-major k×n int8 matrix w into 4-column
// panel-major layout, zero-padding past n (see packPanels).
func packPanelsI8(wp, w []int8, k, n int) {
	for q := 0; q < n/4; q++ {
		dst := wp[q*4*k : (q+1)*4*k]
		for p := 0; p < k; p++ {
			src := w[p*n+q*4 : p*n+q*4+4]
			dst[p*4] = src[0]
			dst[p*4+1] = src[1]
			dst[p*4+2] = src[2]
			dst[p*4+3] = src[3]
		}
	}
	if rem := n % 4; rem != 0 {
		dst := wp[(n/4)*4*k:]
		base := n - rem
		for p := 0; p < k; p++ {
			for j := 0; j < 4; j++ {
				if j < rem {
					dst[p*4+j] = w[p*n+base+j]
				} else {
					dst[p*4+j] = 0
				}
			}
		}
	}
}

// qgemmTiledBody computes rows [lo, hi) of the packed int8 GEMM with
// the fused epilogue applied per (row, 4-column block).
func qgemmTiledBody(c qtileCtx, lo, hi int) {
	a := c.a
	n, k := c.w.cols, a.cols
	np := (n + 3) / 4
	const jbp = qgemmJB / 4
	var acc [16]int32
	for q0 := 0; q0 < np; q0 += jbp {
		q1 := q0 + jbp
		if q1 > np {
			q1 = np
		}
		for i := lo; i < hi; {
			bs := hi - i
			switch {
			case bs >= qgemmMR:
				bs = qgemmMR
			case bs >= 2:
				bs = 2
			default:
				bs = 1
			}
			ad := a.data[i*k:]
			for q := q0; q < q1; q++ {
				w := n - q*4
				if w > 4 {
					w = 4
				}
				panel := c.wp[q*4*k : q*4*k+4*k]
				switch bs {
				case 4:
					qMicroGEMM4(&acc, ad[:k], ad[k:2*k], ad[2*k:3*k], ad[3*k:4*k], panel)
				case 2:
					qMicroGEMM2(&acc, ad[:k], ad[k:2*k], panel)
				default:
					qMicroGEMM1(&acc, ad[:k], panel)
				}
				for r := 0; r < bs; r++ {
					qStoreCols(&c.qgemmCtx, i+r, q*4, w, acc[r*4:r*4+4])
				}
			}
			i += bs
		}
	}
}

// qStoreCols applies dequantize + bias (+ ReLU, + requantize) to the w
// accumulated columns [j0, j0+w) of output row i. Every element is
// independent, so parallel partitioning cannot change the result.
func qStoreCols(c *qgemmCtx, i, j0, w int, acc []int32) {
	aScale := c.a.Scale
	if c.outQ != nil {
		oRow := c.outQ.data[i*c.outQ.cols : (i+1)*c.outQ.cols]
		outScale := float64(c.outQ.Scale)
		for t := 0; t < w; t++ {
			j := j0 + t
			f := float32(acc[t])*aScale*c.w.ColScale[j] + c.bias[j]
			if f < 0 {
				f = 0
			}
			oRow[j] = quantizeValue(float64(f), outScale)
		}
		return
	}
	oRow := c.outF.data[i*c.outF.cols : (i+1)*c.outF.cols]
	for t := 0; t < w; t++ {
		j := j0 + t
		f := float32(acc[t])*aScale*c.w.ColScale[j] + c.bias[j]
		if c.relu && f < 0 {
			f = 0
		}
		oRow[j] = f
	}
}

// qMicroGEMM4 accumulates a 4×4 int32 block against one packed int8
// panel, k ascending with the float kernel's per-(row, quad) zero-skip.
func qMicroGEMM4(acc *[16]int32, a0, a1, a2, a3, panel []int8) {
	k := len(a0)
	var c00, c01, c02, c03 int32
	var c10, c11, c12, c13 int32
	var c20, c21, c22, c23 int32
	var c30, c31, c32, c33 int32
	p := 0
	for ; p+4 <= k; p += 4 {
		b := panel[p*4 : p*4+16]
		if x0, x1, x2, x3 := int32(a0[p]), int32(a0[p+1]), int32(a0[p+2]), int32(a0[p+3]); x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c00 += x0*int32(b[0]) + x1*int32(b[4]) + x2*int32(b[8]) + x3*int32(b[12])
			c01 += x0*int32(b[1]) + x1*int32(b[5]) + x2*int32(b[9]) + x3*int32(b[13])
			c02 += x0*int32(b[2]) + x1*int32(b[6]) + x2*int32(b[10]) + x3*int32(b[14])
			c03 += x0*int32(b[3]) + x1*int32(b[7]) + x2*int32(b[11]) + x3*int32(b[15])
		}
		if x0, x1, x2, x3 := int32(a1[p]), int32(a1[p+1]), int32(a1[p+2]), int32(a1[p+3]); x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c10 += x0*int32(b[0]) + x1*int32(b[4]) + x2*int32(b[8]) + x3*int32(b[12])
			c11 += x0*int32(b[1]) + x1*int32(b[5]) + x2*int32(b[9]) + x3*int32(b[13])
			c12 += x0*int32(b[2]) + x1*int32(b[6]) + x2*int32(b[10]) + x3*int32(b[14])
			c13 += x0*int32(b[3]) + x1*int32(b[7]) + x2*int32(b[11]) + x3*int32(b[15])
		}
		if x0, x1, x2, x3 := int32(a2[p]), int32(a2[p+1]), int32(a2[p+2]), int32(a2[p+3]); x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c20 += x0*int32(b[0]) + x1*int32(b[4]) + x2*int32(b[8]) + x3*int32(b[12])
			c21 += x0*int32(b[1]) + x1*int32(b[5]) + x2*int32(b[9]) + x3*int32(b[13])
			c22 += x0*int32(b[2]) + x1*int32(b[6]) + x2*int32(b[10]) + x3*int32(b[14])
			c23 += x0*int32(b[3]) + x1*int32(b[7]) + x2*int32(b[11]) + x3*int32(b[15])
		}
		if x0, x1, x2, x3 := int32(a3[p]), int32(a3[p+1]), int32(a3[p+2]), int32(a3[p+3]); x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c30 += x0*int32(b[0]) + x1*int32(b[4]) + x2*int32(b[8]) + x3*int32(b[12])
			c31 += x0*int32(b[1]) + x1*int32(b[5]) + x2*int32(b[9]) + x3*int32(b[13])
			c32 += x0*int32(b[2]) + x1*int32(b[6]) + x2*int32(b[10]) + x3*int32(b[14])
			c33 += x0*int32(b[3]) + x1*int32(b[7]) + x2*int32(b[11]) + x3*int32(b[15])
		}
	}
	for ; p < k; p++ {
		b := panel[p*4 : p*4+4]
		if v := int32(a0[p]); v != 0 {
			c00 += v * int32(b[0])
			c01 += v * int32(b[1])
			c02 += v * int32(b[2])
			c03 += v * int32(b[3])
		}
		if v := int32(a1[p]); v != 0 {
			c10 += v * int32(b[0])
			c11 += v * int32(b[1])
			c12 += v * int32(b[2])
			c13 += v * int32(b[3])
		}
		if v := int32(a2[p]); v != 0 {
			c20 += v * int32(b[0])
			c21 += v * int32(b[1])
			c22 += v * int32(b[2])
			c23 += v * int32(b[3])
		}
		if v := int32(a3[p]); v != 0 {
			c30 += v * int32(b[0])
			c31 += v * int32(b[1])
			c32 += v * int32(b[2])
			c33 += v * int32(b[3])
		}
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

// qMicroGEMM2 is qMicroGEMM4 at height 2.
func qMicroGEMM2(acc *[16]int32, a0, a1, panel []int8) {
	k := len(a0)
	var c00, c01, c02, c03 int32
	var c10, c11, c12, c13 int32
	p := 0
	for ; p+4 <= k; p += 4 {
		b := panel[p*4 : p*4+16]
		if x0, x1, x2, x3 := int32(a0[p]), int32(a0[p+1]), int32(a0[p+2]), int32(a0[p+3]); x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c00 += x0*int32(b[0]) + x1*int32(b[4]) + x2*int32(b[8]) + x3*int32(b[12])
			c01 += x0*int32(b[1]) + x1*int32(b[5]) + x2*int32(b[9]) + x3*int32(b[13])
			c02 += x0*int32(b[2]) + x1*int32(b[6]) + x2*int32(b[10]) + x3*int32(b[14])
			c03 += x0*int32(b[3]) + x1*int32(b[7]) + x2*int32(b[11]) + x3*int32(b[15])
		}
		if x0, x1, x2, x3 := int32(a1[p]), int32(a1[p+1]), int32(a1[p+2]), int32(a1[p+3]); x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c10 += x0*int32(b[0]) + x1*int32(b[4]) + x2*int32(b[8]) + x3*int32(b[12])
			c11 += x0*int32(b[1]) + x1*int32(b[5]) + x2*int32(b[9]) + x3*int32(b[13])
			c12 += x0*int32(b[2]) + x1*int32(b[6]) + x2*int32(b[10]) + x3*int32(b[14])
			c13 += x0*int32(b[3]) + x1*int32(b[7]) + x2*int32(b[11]) + x3*int32(b[15])
		}
	}
	for ; p < k; p++ {
		b := panel[p*4 : p*4+4]
		if v := int32(a0[p]); v != 0 {
			c00 += v * int32(b[0])
			c01 += v * int32(b[1])
			c02 += v * int32(b[2])
			c03 += v * int32(b[3])
		}
		if v := int32(a1[p]); v != 0 {
			c10 += v * int32(b[0])
			c11 += v * int32(b[1])
			c12 += v * int32(b[2])
			c13 += v * int32(b[3])
		}
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
}

// qMicroGEMM1 is qMicroGEMM4 at height 1 — also the remainder-row
// kernel.
func qMicroGEMM1(acc *[16]int32, a0, panel []int8) {
	k := len(a0)
	var c00, c01, c02, c03 int32
	p := 0
	for ; p+4 <= k; p += 4 {
		b := panel[p*4 : p*4+16]
		if x0, x1, x2, x3 := int32(a0[p]), int32(a0[p+1]), int32(a0[p+2]), int32(a0[p+3]); x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c00 += x0*int32(b[0]) + x1*int32(b[4]) + x2*int32(b[8]) + x3*int32(b[12])
			c01 += x0*int32(b[1]) + x1*int32(b[5]) + x2*int32(b[9]) + x3*int32(b[13])
			c02 += x0*int32(b[2]) + x1*int32(b[6]) + x2*int32(b[10]) + x3*int32(b[14])
			c03 += x0*int32(b[3]) + x1*int32(b[7]) + x2*int32(b[11]) + x3*int32(b[15])
		}
	}
	for ; p < k; p++ {
		b := panel[p*4 : p*4+4]
		if v := int32(a0[p]); v != 0 {
			c00 += v * int32(b[0])
			c01 += v * int32(b[1])
			c02 += v * int32(b[2])
			c03 += v * int32(b[3])
		}
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
}
