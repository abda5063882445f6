package tensor

import (
	"testing"

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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT(g, w)
	}
}

// BenchmarkTMatMul measures the aᵀ×b backprop kernel.
func BenchmarkTMatMul(b *testing.B) {
	a := benchMat(4096, 64, 1)
	g := benchMat(4096, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMul(a, g)
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

// BenchmarkAddBias measures the broadcast bias add.
func BenchmarkAddBias(b *testing.B) {
	x := benchMat(4096, 64, 1)
	bias := benchMat(1, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddBias(x, bias)
	}
}

// BenchmarkAddBiasReLUInto measures the fused bias+activation kernel
// against the AddBias + ReLU chain it replaces in the MLP hidden
// layers.
func BenchmarkAddBiasReLUInto(b *testing.B) {
	x := benchMat(4096, 64, 1)
	bias := benchMat(1, 64, 2)
	out := New(4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddBiasReLUIntoCtx(kernels.Context{}, out, x, bias)
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
// that replaced GatherConcat3Into + MatMulInto + AddBiasReLUInto.
func BenchmarkMatMulSegs(b *testing.B) {
	const v, e, h = 1272, 2217, 32
	xl, x0 := benchMat(v, h, 1), benchMat(v, h, 2)
	yl, y0 := benchMat(e, h, 3), benchMat(e, h, 4)
	w, bias := benchMat(6*h, h, 5), benchMat(1, h, 6)
	r := rng.New(7)
	src, dst := make([]int, e), make([]int, e)
	for i := range src {
		src[i], dst[i] = r.Intn(v), r.Intn(v)
	}
	out := New(e, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulSegsIntoCtx(kernels.Context{}, out, w, bias, true,
			Seg[float64]{M: yl}, Seg[float64]{M: y0},
			Seg[float64]{M: xl, Idx: src}, Seg[float64]{M: x0, Idx: src},
			Seg[float64]{M: xl, Idx: dst}, Seg[float64]{M: x0, Idx: dst})
	}
}
