package tensor

import (
	"testing"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
)

func benchMat(rows, cols int, seed uint64) *Dense {
	r := rng.New(seed)
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = r.Float64()*2 - 1
	}
	return m
}

// BenchmarkMatMul measures the value-returning dense GEMM at GNN-layer
// shape (tall-skinny × small square).
func BenchmarkMatMul(b *testing.B) {
	a := benchMat(4096, 64, 1)
	w := benchMat(64, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, w)
	}
}

// BenchmarkMatMulInto measures the preallocated GEMM (steady-state path).
func BenchmarkMatMulInto(b *testing.B) {
	a := benchMat(4096, 64, 1)
	w := benchMat(64, 64, 2)
	out := New(4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulIntoCtx(kernels.Context{}, out, a, w)
	}
}

// BenchmarkMatMulT measures the a×bᵀ backprop kernel.
func BenchmarkMatMulT(b *testing.B) {
	g := benchMat(4096, 64, 1)
	w := benchMat(64, 64, 2)
	out := New(4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTIntoCtx(kernels.Context{}, out, g, w)
	}
}

// BenchmarkTMatMul measures the aᵀ×b backprop kernel.
func BenchmarkTMatMul(b *testing.B) {
	a := benchMat(4096, 64, 1)
	g := benchMat(4096, 64, 2)
	out := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMulIntoCtx(kernels.Context{}, out, a, g)
	}
}

// BenchmarkBackwardGEMM measures the two backward GEMMs of the
// edge network's first layer at train_dist's shape (E 650 edges, H 16,
// the 96×16 weight W = [6H × H]): dA = dOut·Wᵀ as MatMulT
// 650×16 · (96×16)ᵀ and dW = Aᵀ·dOut as TMatMul (650×96)ᵀ · 650×16, each
// on the Go bodies (/go) and on the AVX tiles (/avx), at one worker. A is
// rectified, so about half its values take TMatMul's zero skip, as a
// ReLU layer's output does.
func BenchmarkBackwardGEMM(b *testing.B) {
	const e, h, in = 650, 16, 96
	dOut, w, a := benchMat(e, h, 1), benchMat(in, h, 2), benchMat(e, in, 3)
	for i, v := range a.data {
		a.data[i] = max(v, 0)
	}
	dA, dW := New(e, in), New(in, h)
	kc := kernels.Context{Workers: 1}
	probed := simdGEMM
	defer func() { simdGEMM = probed }()
	for _, impl := range []struct {
		name string
		simd bool
	}{{"go", false}, {"avx", true}} {
		run := func(b *testing.B, gemm func()) {
			if impl.simd && !probed {
				b.Skip("CPU has no AVX")
			}
			simdGEMM = impl.simd
			for b.Loop() {
				gemm()
			}
		}
		b.Run("MatMulT/"+impl.name, func(b *testing.B) {
			run(b, func() { MatMulTIntoCtx(kc, dA, dOut, w) })
		})
		b.Run("TMatMul/"+impl.name, func(b *testing.B) {
			run(b, func() { TMatMulIntoCtx(kc, dW, a, dOut) })
		})
	}
}

// BenchmarkGatherRows measures the edge-endpoint feature gather.
func BenchmarkGatherRows(b *testing.B) {
	x := benchMat(4096, 64, 1)
	r := rng.New(3)
	idx := make([]int, 8192)
	for i := range idx {
		idx[i] = r.Intn(4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherRows(x, idx)
	}
}

// BenchmarkGatherConcat3Into measures the fused edge-feature assembly
// [E ‖ X[src] ‖ X[dst]] at IGNN message-input shape.
func BenchmarkGatherConcat3Into(b *testing.B) {
	x := benchMat(4096, 64, 1)
	e := benchMat(8192, 16, 2)
	r := rng.New(3)
	src := make([]int, 8192)
	dst := make([]int, 8192)
	for i := range src {
		src[i] = r.Intn(4096)
		dst[i] = r.Intn(4096)
	}
	out := New(8192, 16+64+64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherConcat3IntoCtx(kernels.Context{}, out, e, nil, x, src, x, dst)
	}
}

// BenchmarkMatMulSegs measures the segmented GEMM at the Interaction
// GNN's edge-network shape on a recon_gnn_* event: E 2217 rows of six
// 32-wide segments [Yl ‖ Y0 ‖ Xl[src] ‖ X0[src] ‖ Xl[dst] ‖ X0[dst]]
// against a 192×32 first layer with the bias+ReLU epilogue — the call
// that replaced GatherConcat3Into + MatMulInto + AddBiasReLUInto. It
// runs at float64 and float32, each on the Go micro-kernels (/go) and on
// the AVX tiles (/avx), at one worker. The segments are rectified, so
// about half their values are zero and take the quad skip, as the
// network's ReLU outputs do.
func BenchmarkMatMulSegs(b *testing.B) {
	const v, e, h = 1272, 2217, 32
	rect := func(m *Dense) *Dense {
		for i, x := range m.data {
			m.data[i] = max(x, 0)
		}
		return m
	}
	xl, x0 := rect(benchMat(v, h, 1)), rect(benchMat(v, h, 2))
	yl, y0 := rect(benchMat(e, h, 3)), rect(benchMat(e, h, 4))
	w, bias := benchMat(6*h, h, 5), benchMat(1, h, 6)
	r := rng.New(7)
	src, dst := make([]int, e), make([]int, e)
	for i := range src {
		src[i], dst[i] = r.Intn(v), r.Intn(v)
	}
	b.Run("f64", func(b *testing.B) { benchMatMulSegs(b, xl, x0, yl, y0, w, bias, src, dst) })
	f32 := func(m *Dense) *Matrix[float32] { return ConvertFrom[float32](nil, m) }
	b.Run("f32", func(b *testing.B) {
		benchMatMulSegs(b, f32(xl), f32(x0), f32(yl), f32(y0), f32(w), f32(bias), src, dst)
	})
}

func benchMatMulSegs[T fp.Float](b *testing.B, xl, x0, yl, y0, w, bias *Matrix[T], src, dst []int) {
	out := NewOf[T](yl.Rows(), w.Cols())
	kc := kernels.Context{Workers: 1}
	probed := simdGEMM
	defer func() { simdGEMM = probed }()
	for _, impl := range []struct {
		name string
		simd bool
	}{{"go", false}, {"avx", true}} {
		b.Run(impl.name, func(b *testing.B) {
			if impl.simd && !probed {
				b.Skip("CPU has no AVX")
			}
			simdGEMM = impl.simd
			gemm := func() {
				MatMulSegsIntoCtx(kc, out, w, bias, true,
					Seg[T]{M: yl}, Seg[T]{M: y0},
					Seg[T]{M: xl, Idx: src}, Seg[T]{M: x0, Idx: src},
					Seg[T]{M: xl, Idx: dst}, Seg[T]{M: x0, Idx: dst})
			}
			gemm() // warm the panel and scratch pools
			for b.Loop() {
				gemm()
			}
		})
	}
}
