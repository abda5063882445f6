package main

import (
	"math"
	"time"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/tensor"
	"repro/recon"
)

func medianCallMs(f func()) float64 {
	f() // first touch
	ms := make([]float64, size.kernelCalls)
	for i := range ms {
		t0 := time.Now()
		f()
		ms[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	return median(ms)
}

// kernelLedger times the three kernels under the Interaction GNN by
// calling them directly at the workload's own shapes: E edges (src, dst),
// V vertices, H hidden. The GEMM is the edge network's first layer
// [E×3H]·[3H×H]; the SpMM is the incidence aggregation [V×E]·[E×H]; the
// gather is the message input [Y' ‖ X'[src] ‖ X'[dst]]. Bytes and flops
// are computed from the array sizes, not measured.
func kernelLedger(rep *report, kc kernels.Context, prec recon.Precision, src, dst []int, v, h int) {
	e := len(src)
	if e == 0 || v == 0 {
		return
	}
	r := rng.New(fixtureSeed)
	a64 := tensor.RandN(r, e, 3*h, 1)
	w64 := tensor.RandN(r, 3*h, h, 1)
	x64 := tensor.RandN(r, e, h, 1)
	n64 := tensor.RandN(r, v, h, 1)

	var gemm, spmm, gather float64
	var elem int // bytes per element moved by the GEMM and SpMM
	switch prec {
	case recon.Float32:
		elem = 4
		gemm, spmm = floatKernels[float32](kc, a64, w64, x64, dst, v)
		gather = gatherMs[float32](kc, x64, n64, src, dst)
	case recon.Int8:
		elem = 1
		aQ, xQ := quantize(a64), quantize(x64)
		wQ := tensor.QuantizeWeights(w64)
		bias := make([]float32, h)
		oQ := tensor.NewQMat(e, h, 0)
		gemm = medianCallMs(func() { tensor.QMatMulBiasReLUQuantInto(kc, oQ, aQ, wQ, bias, 0.05) })
		s := sparse.QIncidenceInto(&sparse.QCSR{}, v, dst)
		sQ := tensor.NewQMat(v, h, 0)
		spmm = medianCallMs(func() { sparse.QSpMMQuantInto(kc, sQ, s, xQ, 0.05) })
		// The int8 GNN assembles its message input with QConcatCols on
		// already-gathered rows; the float32 gather is what feeds it.
		gather = gatherMs[float32](kc, x64, n64, src, dst)
	default:
		elem = 8
		gemm, spmm = floatKernels[float64](kc, a64, w64, x64, dst, v)
		gather = gatherMs[float64](kc, x64, n64, src, dst)
	}
	flops := 2 * float64(e) * float64(3*h) * float64(h)
	// One pass over X and the output, plus the CSR's index arrays
	// (8-byte ints) and, for the float kernels, its value stream.
	bytes := float64((e*h+v*h)*elem) + float64((v+1+e)*8)
	if prec != recon.Int8 {
		bytes += float64(e * elem)
	}
	rep.layer["tensor.gemm_ms"] = value{gemm, size.kernelCalls}
	rep.layer["tensor.gemm_gflops"] = value{flops / (gemm * 1e6), size.kernelCalls}
	rep.layer["sparse.spmm_ms"] = value{spmm, size.kernelCalls}
	rep.layer["sparse.spmm_gbps"] = value{bytes / (spmm * 1e6), size.kernelCalls}
	rep.layer["tensor.gather_concat_ms"] = value{gather, size.kernelCalls}
}

// floatKernels times the GEMM and the incidence SpMM at element type T.
func floatKernels[T fp.Float](kc kernels.Context, a64, w64, x64 *tensor.Dense, dst []int, v int) (gemm, spmm float64) {
	a := tensor.ConvertFrom[T](nil, a64)
	w := tensor.ConvertFrom[T](nil, w64)
	x := tensor.ConvertFrom[T](nil, x64)
	e, h := x.Rows(), x.Cols()
	out := tensor.NewOf[T](e, h)
	gemm = medianCallMs(func() { tensor.MatMulIntoCtx(kc, out, a, w) })
	s := sparse.IncidenceInto(sparse.NewCSROf[T](0, 0), v, dst)
	agg := tensor.NewOf[T](v, h)
	spmm = medianCallMs(func() { sparse.SpMMIntoCtx(kc, agg, s, x) })
	return gemm, spmm
}

// gatherMs times the fused message-input gather at element type T.
func gatherMs[T fp.Float](kc kernels.Context, x64, n64 *tensor.Dense, src, dst []int) float64 {
	x := tensor.ConvertFrom[T](nil, x64)
	n := tensor.ConvertFrom[T](nil, n64)
	msg := tensor.NewOf[T](x.Rows(), 3*x.Cols())
	return medianCallMs(func() { tensor.GatherConcat3IntoCtx(kc, msg, x, nil, n, src, n, dst) })
}

// quantize maps a float64 fixture to int8 at its own maxabs/127 scale,
// the scheme the calibrated inference path uses.
func quantize(m *tensor.Dense) *tensor.QMat {
	maxAbs := 0.0
	for _, x := range m.Data() {
		maxAbs = math.Max(maxAbs, math.Abs(x))
	}
	q := tensor.NewQMat(m.Rows(), m.Cols(), 0)
	tensor.QuantizeInto(kernels.Context{}, q, tensor.ConvertFrom[float32](nil, m), float32(maxAbs/127))
	return q
}
