package tensor

import (
	"math"
	"testing"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
)

// Backward GEMM coverage: MatMulTIntoCtx and TMatMulIntoCtx must match a
// serial scalar statement of their accumulation contracts (ops.go) bit
// for bit, on the Go bodies and on the AVX tiles, at every worker count
// and on shapes that leave every remainder, with signed zeros, infinities
// and NaN in the operands.

// backwardShapes are {m, k, n}: MatMulT multiplies an m×k a by the
// transpose of an n×k b, TMatMul the transpose of a k×m a by a k×n b,
// so both store an m×n output over a reduction of length k. They cover
// zero rows, odd m, every residue of n mod 4 and of k mod 4, k < 4,
// k = 0, n below, at and past a 16-wide tile, and the edge-network
// shape of train_dist (k = 16 or 650 against 96 outputs).
var backwardShapes = []struct{ m, k, n int }{
	{0, 5, 7},
	{3, 0, 17},
	{1, 1, 1},
	{2, 3, 16},
	{3, 4, 5},
	{5, 5, 18},
	{7, 6, 33},
	{4, 7, 31},
	{9, 8, 15},
	{11, 17, 34},
	{2, 18, 4},
	{17, 9, 48},
	{13, 16, 96},
	{96, 65, 16},
}

// backwardValues are the special values the bitwise tests mix in: signed
// zeros, infinities and the NaN that Inf·0 and Inf−Inf produce on amd64
// (the fuzzValues convention: one NaN pattern, so the comparison stays
// bitwise without pinning which of two NaN payloads an add keeps).
var backwardValues = [...]float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff8000000000000),
}

// backwardMat fills a rows×cols matrix with unit normals, 30% of them
// +0 and 2% drawn from backwardValues: rare enough that most sums stay
// finite, so the special values do not hide the ordinary arithmetic.
func backwardMat[T fp.Float](r *rng.Rand, rows, cols int) *Matrix[T] {
	m := NewOf[T](rows, cols)
	for i := range m.data {
		switch u := r.Intn(100); {
		case u < 30:
			m.data[i] = 0
		case u < 32:
			m.data[i] = T(backwardValues[r.Intn(len(backwardValues))])
		default:
			m.data[i] = T(r.NormFloat64())
		}
	}
	return m
}

// refMatMulT is MatMulTIntoCtx's contract written flat: per output,
// four stride sums from +0 over the leading k &^ 3 elements, reduced
// ((s0+s1)+s2)+s3, then the tail terms in ascending order.
func refMatMulT[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	m, k, n := a.Rows(), a.Cols(), b.Rows()
	out := NewOf[T](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s [4]T
			p := 0
			for ; p+4 <= k; p += 4 {
				for l := range s {
					s[l] += a.At(i, p+l) * b.At(j, p+l)
				}
			}
			sum := ((s[0] + s[1]) + s[2]) + s[3]
			for ; p < k; p++ {
				sum += a.At(i, p) * b.At(j, p)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// refTMatMul is TMatMulIntoCtx's contract written flat: per output, from
// +0 over ascending p, skipping every p whose a value equals zero.
func refTMatMul[T fp.Float](a, b *Matrix[T]) *Matrix[T] {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	out := NewOf[T](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc T
			for p := 0; p < k; p++ {
				if av := a.At(p, i); av != 0 {
					acc += av * b.At(p, j)
				}
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

func testBackwardMatchesFlat[T fp.Float](t *testing.T, seed uint64) {
	r := rng.New(seed)
	for _, sh := range backwardShapes {
		g, w := backwardMat[T](r, sh.m, sh.k), backwardMat[T](r, sh.n, sh.k)
		a, d := backwardMat[T](r, sh.k, sh.m), backwardMat[T](r, sh.k, sh.n)
		wantT, wantTM := refMatMulT(g, w), refTMatMul(a, d)
		for _, wk := range parityWorkers {
			kc := kernels.Context{Workers: wk}
			got := NewOf[T](sh.m, sh.n)
			got.Fill(777)
			MatMulTIntoCtx(kc, got, g, w)
			matBitsEqual(t, "MatMulTIntoCtx", wantT, got)
			got.Fill(777)
			TMatMulIntoCtx(kc, got, a, d)
			matBitsEqual(t, "TMatMulIntoCtx", wantTM, got)
		}
	}
}

func TestBackwardGEMMMatchesFlatBitwise(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) { testBackwardMatchesFlat[float64](t, 500) })
}

func TestBackwardGEMMMatchesFlatBitwiseF32(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) { testBackwardMatchesFlat[float32](t, 600) })
}

// TestTMatMulZeroSkipMasksSpecialValues pins TMatMul's per-(p, i) skip:
// wherever a[p,i] is +0 or -0, the Inf and NaN in b's row p never reach
// out[i,·], while a NaN a value is not skipped. The output spans two
// 16-wide tiles and a remainder on both sides of the odd last row.
func TestTMatMulZeroSkipMasksSpecialValues(t *testing.T) {
	forEachGEMMKernel(t, testTMatMulZeroSkipMasksSpecialValues)
}

func testTMatMulZeroSkipMasksSpecialValues(t *testing.T) {
	const k, m, n = 12, 5, 37
	r := rng.New(8)
	a, b := RandN(r, k, m, 1), RandN(r, k, n, 1)
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0xfff8000000000000)
	// b rows 1, 4 and 9 are poison; column i of a is zero there except
	// column 3, whose row 9 is NaN.
	for j := 0; j < n; j++ {
		b.Set(1, j, math.Inf(1))
		b.Set(4, j, nan)
		b.Set(9, j, math.Inf(-1))
	}
	for i := 0; i < m; i++ {
		a.Set(1, i, 0)
		a.Set(4, i, negZero)
		a.Set(9, i, 0)
	}
	a.Set(9, 3, nan)
	want := refTMatMul(a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := want.At(i, j)
			if isNaN := math.IsNaN(v); isNaN != (i == 3) || math.IsInf(v, 0) {
				t.Fatalf("reference out[%d,%d] = %v: the poison is not masked as the contract says", i, j, v)
			}
		}
	}
	for _, w := range parityWorkers {
		got := New(m, n)
		TMatMulIntoCtx(kernels.Context{Workers: w}, got, a, b)
		matBitsEqual(t, "TMatMulIntoCtx zero skip", want, got)
	}
}
