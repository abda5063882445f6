package tensor

import (
	"maps"
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

// forEachGEMMKernel runs body on each tile implementation: first on the
// Go micro-kernels with simdGEMM forced off, then on the AVX tile
// kernel, which is skipped on a CPU without AVX (and off amd64). Both
// must meet the same bitwise contract, and the first run keeps the Go
// path covered on hosts that have AVX.
func forEachGEMMKernel(t *testing.T, body func(t *testing.T)) {
	probed := simdGEMM
	defer func() { simdGEMM = probed }()
	simdGEMM = false
	t.Run("go", body)
	t.Run("avx", func(t *testing.T) {
		if !probed {
			t.Skip("CPU has no AVX")
		}
		simdGEMM = true
		body(t)
	})
}

// gemmShapesUnderTest exercises k%4 remainders (every residue), n%4 and
// n%8 remainders (every residue), rows below the MR=4 block,
// panel-boundary-straddling widths, and the AVX tiles' panel pairing at
// both panel widths (4 columns at float64, 8 at float32): a pair plus an
// odd full panel (n = 12 at float64, 24 at float32), a pair alone and a
// lone panel (n = 8 at float64 and at float32), an odd panel count in
// the second gemmJB column block (n = 76: eight pairs, then a pair and
// an odd panel at float64; four pairs, then an odd panel and a partial
// one at float32), and two pairs plus an odd panel (n = 40 at float32).
var gemmShapesUnderTest = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{5, 4, 3},
	{8, 16, 4},
	{37, 23, 29},
	{64, 33, 65},
	{7, 2, 6},
	{9, 12, 12},
	{6, 7, 76},
	{4, 16, 8},
	{10, 9, 24},
	{13, 6, 40},
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
	forEachGEMMKernel(t, func(t *testing.T) { testMatMulMatchesFlat[float64](t, 100) })
}

func TestTiledMatMulMatchesFlatBitwiseF32(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) { testMatMulMatchesFlat[float32](t, 200) })
}

// TestTiledAVXTilesCoverEachFullPanelOnce pins gemmBody's walk over the
// AVX tiles: every full MR-row block meets every full panel in exactly
// one tile, and within each gemmJB column block the full panels pair
// into wide tiles from the left, an odd last one taking the 4-wide tile.
// A tile run twice stores the same bits, so only this test sees it.
func TestTiledAVXTilesCoverEachFullPanelOnce(t *testing.T) {
	if !simdGEMM {
		t.Skip("CPU has no AVX")
	}
	defer func() { testHookTile = nil }()
	testTilesCoverEachFullPanelOnce[float64](t)
	testTilesCoverEachFullPanelOnce[float32](t)
}

func testTilesCoverEachFullPanelOnce[T fp.Float](t *testing.T) {
	pw := panelWidth[T]()
	for _, sh := range append(gemmShapesUnderTest, struct{ m, k, n int }{5, 3, 140}) {
		want := map[int]int{} // output offset → panel count
		for i := 0; i+gemmMR <= sh.m; i += gemmMR {
			for q0 := 0; q0 < (sh.n+pw-1)/pw; q0 += gemmJB / pw {
				full := min(q0+gemmJB/pw, sh.n/pw) - q0
				for q := 0; q < full; q += 2 {
					want[i*sh.n+(q0+q)*pw] = min(full-q, 2)
				}
			}
		}
		got := map[int]int{}
		testHookTile = func(off, np int) {
			if _, dup := got[off]; dup {
				t.Fatalf("%v: the tile at output offset %d ran twice", sh, off)
			}
			got[off] = np
		}
		a := NewOf[T](sh.m, sh.k)
		b := NewOf[T](sh.k, sh.n)
		MatMulIntoCtx(kernels.Context{Workers: 1}, NewOf[T](sh.m, sh.n), a, b)
		testHookTile = nil
		if !maps.Equal(got, want) {
			t.Fatalf("%v at panel width %d: tiles (offset → panels) %v, want %v", sh, pw, got, want)
		}
	}
}

// TestTiledMatMulZeroSkipMasksSpecialValues pins the skip contract: a
// zero a-quad (or zero tail element) must skip B entirely, so Inf/NaN
// in the skipped B rows never reach the accumulators.
func TestTiledMatMulZeroSkipMasksSpecialValues(t *testing.T) {
	forEachGEMMKernel(t, testTiledMatMulZeroSkipMasksSpecialValues)
}

func testTiledMatMulZeroSkipMasksSpecialValues(t *testing.T) {
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

// TestTiledEpilogueSpecialValues pins the fused bias/ReLU epilogue on
// special pre-bias sums: each row of a is [s 0 0 0] with s one of 1, 0,
// -1 and NaN, and b's first row holds every sum, so the GEMM stores NaN,
// ±Inf, +0, negative and positive sums (a -0 sum cannot occur:
// accumulators start at +0), which then meet biases of +0, -0, NaN and
// both signs. ReLU must give +0 for NaN and every s ≤ 0, as addBiasRow's
// s > 0 test does. Every (sum, bias) pair is placed in the first and in
// the second panel of a wide tile, and in the odd one-panel tile.
func TestTiledEpilogueSpecialValues(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) {
		testEpilogueSpecialValues[float64](t)
		testEpilogueSpecialValues[float32](t)
	})
}

func testEpilogueSpecialValues[T fp.Float](t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sums := []float64{nan, 0, math.Copysign(0, -1), -1.5, 2.5, inf, -inf}
	biases := []float64{0, math.Copysign(0, -1), nan, -2, 0.75}
	pairs := len(sums) * len(biases) // 35
	// With panel width pw (4 at float64, 8 at float32), n = gemmJB+3pw+2
	// columns: a gemmJB block of wide tiles, then a wide tile, the odd
	// one-panel tile and a partial panel. Column j holds pair
	// (j+shift) % 35; the nine shifts place every pair in each of the
	// first three kinds of columns.
	pw := panelWidth[T]()
	n := gemmJB + 3*pw + 2
	// kind is 0 or 1 in the first or second panel of a wide tile, 2 in
	// the odd tile and 3 in the partial panel.
	kind := func(j int) int {
		switch {
		case j >= gemmJB+3*pw:
			return 3
		case j >= gemmJB+2*pw:
			return 2
		}
		return j / pw % 2
	}
	placed := make([][4]bool, pairs)
	// Each s sits at every row position of a tile.
	scales := []T{1, 0, -1, T(nan)}
	const m = 16
	a := NewOf[T](m, 4)
	for i := 0; i < m; i++ {
		a.Set(i, 0, scales[(i+i/4)%4])
	}
	for shift := 0; shift < pairs; shift += 4 {
		b, bias := NewOf[T](4, n), NewOf[T](1, n)
		for j := 0; j < n; j++ {
			p := (j + shift) % pairs
			b.Set(0, j, T(sums[p/len(biases)]))
			bias.Set(0, j, T(biases[p%len(biases)]))
			placed[p][kind(j)] = true
		}
		sum := refMatMul(a, b)
		for _, relu := range []bool{false, true} {
			want := NewOf[T](m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					s := sum.At(i, j) + bias.At(0, j)
					if relu && !(s > 0) {
						s = 0
					}
					want.Set(i, j, s)
				}
			}
			got := NewOf[T](m, n)
			MatMulSegsIntoCtx(kernels.Context{Workers: 1}, got, b, bias, relu, Seg[T]{M: a})
			matBitsEqual(t, "MatMulSegs epilogue", want, got)
		}
	}
	for p, at := range placed {
		if !at[0] || !at[1] || !at[2] {
			t.Fatalf("pair %d was never placed in every kind of tile column: %v", p, at)
		}
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
		wantQ := refQGEMM(a, w, bias, outScale)
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
	qoutQ := NewQMat(37, 29, 0)
	kc := kernels.Context{Workers: 1}
	MatMulIntoCtx(kc, out, a, b) // warm the panel pools
	QMatMulBiasReLUQuantInto(kc, qoutQ, qa, qw, bias, 0.02)
	allocs := testing.AllocsPerRun(100, func() {
		MatMulIntoCtx(kc, out, a, b)
		QMatMulBiasReLUQuantInto(kc, qoutQ, qa, qw, bias, 0.02)
	})
	if allocs != 0 {
		t.Fatalf("warm tiled GEMMs allocated %.1f per run, want 0", allocs)
	}
}
