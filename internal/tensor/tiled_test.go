package tensor

import (
	"math"
	"testing"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
)

// GEMM coverage: the packed-panel register-blocked kernels must match a
// serial scalar statement of their accumulation contract bit for bit at
// every worker count and precision — including shapes with k-quad
// remainders, non-multiple-of-4 column counts, and fewer rows than the
// register block — and must mask Inf/NaN behind zero a values.

// gemmShapesUnderTest exercises k%4 remainders (every residue), n%4
// remainders (every residue), rows below the MR=4 block, and
// panel-boundary-straddling widths.
var gemmShapesUnderTest = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{5, 4, 3},
	{8, 16, 4},
	{37, 23, 29},
	{64, 33, 65},
	{7, 2, 6},
}

// refMatMul is the accumulation contract of MatMulIntoCtx written flat,
// one output element at a time with no packing, blocking or
// parallelism: from zero, ascending k in quads associated
// ((a0·b0 + a1·b1) + a2·b2) + a3·b3, then single-k tail terms; a quad
// (or tail term) whose a values are all zero is skipped for that row,
// so b is never read there.
func refMatMul[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := NewOf[T](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc T
			p := 0
			for ; p+4 <= k; p += 4 {
				a0, a1, a2, a3 := a.At(i, p), a.At(i, p+1), a.At(i, p+2), a.At(i, p+3)
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				acc += a0*b.At(p, j) + a1*b.At(p+1, j) + a2*b.At(p+2, j) + a3*b.At(p+3, j)
			}
			for ; p < k; p++ {
				if av := a.At(i, p); av != 0 {
					acc += av * b.At(p, j)
				}
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// matBitsEqual compares Float64bits / Float32bits, so signed zeros and
// NaN payloads count.
func matBitsEqual[T fp.Float](t *testing.T, name string, want, got *Matrix[T]) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, want.Rows(), want.Cols(), got.Rows(), got.Cols())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		same := math.Float64bits(float64(wd[i])) == math.Float64bits(float64(gd[i]))
		if fp.Is32[T]() {
			same = math.Float32bits(float32(wd[i])) == math.Float32bits(float32(gd[i]))
		}
		if !same {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, wd[i], gd[i])
		}
	}
}

func testMatMulMatchesFlat[T fp.Float](t *testing.T, seedBase int) {
	for _, sh := range gemmShapesUnderTest {
		r := rng.New(uint64(seedBase + sh.m))
		a := ConvertFrom[T](nil, RandN(r, sh.m, sh.k, 1))
		b := ConvertFrom[T](nil, RandN(r, sh.k, sh.n, 1))
		// Sprinkle zeros so the per-quad and per-element skip paths run.
		ad := a.Data()
		for i := 0; i < len(ad); i += 3 {
			ad[i] = 0
		}
		want := refMatMul(a, b)
		for _, w := range parityWorkers {
			got := NewOf[T](sh.m, sh.n)
			MatMulIntoCtx(kernels.Context{Workers: w}, got, a, b)
			matBitsEqual(t, "MatMulIntoCtx", want, got)
		}
	}
}

func TestTiledMatMulMatchesFlatBitwise(t *testing.T) {
	testMatMulMatchesFlat[float64](t, 100)
}

func TestTiledMatMulMatchesFlatBitwiseF32(t *testing.T) {
	testMatMulMatchesFlat[float32](t, 200)
}

// TestTiledMatMulZeroSkipMasksSpecialValues pins the skip contract: a
// zero a-quad (or zero tail element) must skip B entirely, so Inf/NaN
// in the skipped B rows never reach the accumulators.
func TestTiledMatMulZeroSkipMasksSpecialValues(t *testing.T) {
	const m, k, n = 6, 9, 10
	r := rng.New(7)
	a := RandN(r, m, k, 1)
	b := RandN(r, k, n, 1)
	// Row 0: all zero. Row 1: first quad zero. Row 2: tail element zero.
	for j := 0; j < k; j++ {
		a.Set(0, j, 0)
	}
	for j := 0; j < 4; j++ {
		a.Set(1, j, 0)
	}
	a.Set(2, 8, 0)
	// Poison the B rows those zeros hit.
	for j := 0; j < n; j++ {
		b.Set(0, j, math.Inf(1))
		b.Set(2, j, math.NaN())
		b.Set(8, j, math.Inf(-1))
	}
	want := refMatMul(a, b)
	for j := 0; j < n; j++ {
		if v := want.At(0, j); v != 0 {
			t.Fatalf("reference row 0 col %d = %v, want the poison masked to 0", j, v)
		}
	}
	for _, w := range parityWorkers {
		got := New(m, n)
		MatMulIntoCtx(kernels.Context{Workers: w}, got, a, b)
		matBitsEqual(t, "MatMulIntoCtx special values", want, got)
	}
}

func TestTiledQGEMMMatchesFlatBitwise(t *testing.T) {
	shapes := []struct{ m, k, n int }{{1, 1, 1}, {3, 5, 7}, {37, 24, 29}, {8, 16, 4}, {5, 6, 3}}
	for si, sh := range shapes {
		src := ConvertFrom[float32](nil, benchMat(sh.m, sh.k, uint64(300+si)))
		a := NewQMat(sh.m, sh.k, 0)
		QuantizeInto(kernels.Context{Workers: 1}, a, src, 0.01)
		w := QuantizeWeights(benchMat(sh.k, sh.n, uint64(400+si)))
		bias := make([]float32, sh.n)
		for j := range bias {
			bias[j] = float32(j)*0.25 - 1
		}
		const outScale = 0.02
		for _, relu := range []bool{false, true} {
			want := refQGEMM(a, w, bias, relu)
			for _, wk := range parityWorkers {
				got := NewOf[float32](sh.m, sh.n)
				QMatMulBiasInto(kernels.Context{Workers: wk}, got, a, w, bias, relu)
				matBitsEqual(t, "QMatMulBiasInto", want, got)
			}
		}
		// The requantizing epilogue is the float ReLU epilogue followed
		// by quantizeValue at the output scale.
		wantQ := NewQMat(sh.m, sh.n, outScale)
		for i, f := range refQGEMM(a, w, bias, true).Data() {
			wantQ.Data()[i] = quantizeValue(float64(f), outScale)
		}
		for _, wk := range parityWorkers {
			gotQ := NewQMat(sh.m, sh.n, 0)
			QMatMulBiasReLUQuantInto(kernels.Context{Workers: wk}, gotQ, a, w, bias, outScale)
			qbitsEqual(t, "QMatMulBiasReLUQuantInto", wantQ, gotQ)
		}
	}
}

// TestTiledKernelsZeroAllocsWarm pins the pooled-workspace contract of
// the GEMM paths: once the panel pools are warm, a call performs no
// heap allocation.
func TestTiledKernelsZeroAllocsWarm(t *testing.T) {
	a := benchMat(37, 24, 1)
	b := benchMat(24, 29, 2)
	out := New(37, 29)
	src := ConvertFrom[float32](nil, benchMat(37, 24, 3))
	qa := NewQMat(37, 24, 0)
	QuantizeInto(kernels.Context{Workers: 1}, qa, src, 0.01)
	qw := QuantizeWeights(benchMat(24, 29, 4))
	bias := make([]float32, 29)
	qoutF := NewOf[float32](37, 29)
	qoutQ := NewQMat(37, 29, 0)
	kc := kernels.Context{Workers: 1}
	MatMulIntoCtx(kc, out, a, b) // warm the panel pools
	QMatMulBiasInto(kc, qoutF, qa, qw, bias, true)
	QMatMulBiasReLUQuantInto(kc, qoutQ, qa, qw, bias, 0.02)
	allocs := testing.AllocsPerRun(100, func() {
		MatMulIntoCtx(kc, out, a, b)
		QMatMulBiasInto(kc, qoutF, qa, qw, bias, true)
		QMatMulBiasReLUQuantInto(kc, qoutQ, qa, qw, bias, 0.02)
	})
	if allocs != 0 {
		t.Fatalf("warm tiled GEMMs allocated %.1f per run, want 0", allocs)
	}
}
