package tensor

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
)

// Float32 kernel coverage: worker-count determinism (golden: bitwise
// identical at workers ∈ {1, 2, 4, 7}), f64 parity within float32
// rounding tolerance, and the zero-allocation contract of the generic
// instantiations.

// benchMat32 mirrors benchMat at float32 (same RNG stream, rounded).
func benchMat32(rows, cols int, seed uint64) *Dense32 {
	return ConvertFrom[float32](nil, benchMat(rows, cols, seed))
}

func bits32Equal(t *testing.T, name string, want, got *Dense32) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, want.Rows(), want.Cols(), got.Rows(), got.Cols())
	}
	w, g := want.Data(), got.Data()
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, w[i], g[i])
		}
	}
}

var parityWorkers32 = []int{1, 2, 4, 7}

func TestF32KernelsWorkerCountParity(t *testing.T) {
	a := benchMat32(130, 40, 1)
	b := benchMat32(40, 50, 2)
	g := benchMat32(130, 50, 3)
	bias := benchMat32(1, 50, 4)
	r := rng.New(5)
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = r.Intn(130)
	}

	ref := struct {
		mm, mmt, tmm, ab, abr, gat, cc, gc3 *Dense32
	}{
		mm:  NewOf[float32](130, 50),
		mmt: NewOf[float32](130, 130),
		tmm: NewOf[float32](40, 50),
		ab:  NewOf[float32](130, 50),
		abr: NewOf[float32](130, 50),
		gat: NewOf[float32](200, 40),
		cc:  NewOf[float32](130, 90),
		gc3: NewOf[float32](200, 120),
	}
	for wi, w := range parityWorkers32 {
		kc := kernels.Context{Workers: w}
		mm := NewOf[float32](130, 50)
		MatMulIntoCtx(kc, mm, a, b)
		mmt := NewOf[float32](130, 130)
		MatMulTIntoCtx(kc, mmt, g, g)
		tmm := NewOf[float32](40, 50)
		TMatMulIntoCtx(kc, tmm, a, g)
		ab := NewOf[float32](130, 50)
		AddBiasIntoCtx(kc, ab, g, bias)
		abr := NewOf[float32](130, 50)
		AddBiasReLUIntoCtx(kc, abr, g, bias)
		gat := NewOf[float32](200, 40)
		GatherRowsIntoCtx(kc, gat, a, idx)
		cc := NewOf[float32](130, 90)
		ConcatColsIntoCtx(kc, cc, a, g)
		gc3 := NewOf[float32](200, 120)
		GatherConcat3IntoCtx(kc, gc3, a, idx, a, idx, a, idx)
		if wi == 0 {
			ref.mm, ref.mmt, ref.tmm, ref.ab, ref.abr, ref.gat, ref.cc, ref.gc3 = mm, mmt, tmm, ab, abr, gat, cc, gc3
			continue
		}
		bits32Equal(t, "MatMul f32", ref.mm, mm)
		bits32Equal(t, "MatMulT f32", ref.mmt, mmt)
		bits32Equal(t, "TMatMul f32", ref.tmm, tmm)
		bits32Equal(t, "AddBias f32", ref.ab, ab)
		bits32Equal(t, "AddBiasReLU f32", ref.abr, abr)
		bits32Equal(t, "GatherRows f32", ref.gat, gat)
		bits32Equal(t, "ConcatCols f32", ref.cc, cc)
		bits32Equal(t, "GatherConcat3 f32", ref.gc3, gc3)
	}
}

// TestF32MatMulMatchesF64WithinTolerance bounds the rounding drift of
// the float32 GEMM against the float64 reference: inputs are exactly
// representable in both precisions, so every discrepancy is f32
// accumulation error, which for k=40 unit-scale entries stays well
// under 1e-4.
func TestF32MatMulMatchesF64WithinTolerance(t *testing.T) {
	a64 := benchMat(130, 40, 1)
	b64 := benchMat(40, 50, 2)
	// Round the f64 operands to f32-representable values so both paths
	// compute from identical inputs.
	a32 := ConvertFrom[float32](nil, a64)
	b32 := ConvertFrom[float32](nil, b64)
	Convert(a64, a32)
	Convert(b64, b32)

	got := ConvertFrom[float64](nil, MatMul(a32, b32))
	want := MatMul(a64, b64)
	if d := want.MaxAbsDiff(got); d > 1e-4 {
		t.Fatalf("f32 MatMul drifts %v from f64", d)
	}

	gotT := ConvertFrom[float64](nil, MatMulT(a32, a32))
	wantT := MatMulT(a64, a64)
	if d := wantT.MaxAbsDiff(gotT); d > 1e-4 {
		t.Fatalf("f32 MatMulT drifts %v from f64", d)
	}
}

func TestF32IntoKernelsZeroAllocs(t *testing.T) {
	a, b := benchMat32(8, 8, 1), benchMat32(8, 8, 2)
	bias := benchMat32(1, 8, 3)
	out := NewOf[float32](8, 8)
	mm := NewOf[float32](8, 8)
	idx := []int{3, 1, 7, 0}
	gather := NewOf[float32](4, 8)
	gc3 := NewOf[float32](4, 24)
	allocs := testing.AllocsPerRun(100, func() {
		MatMulIntoCtx(kernels.Context{}, mm, a, b)
		MatMulTIntoCtx(kernels.Context{}, mm, a, b)
		TMatMulIntoCtx(kernels.Context{}, mm, a, b)
		AddInto(out, a, b)
		SubInto(out, a, b)
		MulInto(out, a, b)
		ScaleInto(out, 2.5, a)
		AddBiasIntoCtx(kernels.Context{}, out, a, bias)
		AddBiasReLUIntoCtx(kernels.Context{}, out, a, bias)
		GatherRowsIntoCtx(kernels.Context{}, gather, a, idx)
		GatherConcat3IntoCtx(kernels.Context{}, gc3, a, idx, a, idx, b, idx)
	})
	if allocs != 0 {
		t.Fatalf("f32 Into kernels allocated %.1f per run, want 0", allocs)
	}
}

// TestConvertRoundTrip pins the precision-boundary semantics: f32→f64
// widening is exact, f64→f32 rounds to nearest.
func TestConvertRoundTrip(t *testing.T) {
	m := benchMat(7, 5, 9)
	down := ConvertFrom[float32](nil, m)
	up := ConvertFrom[float64](nil, down)
	for i, v := range m.Data() {
		if up.Data()[i] != float64(float32(v)) {
			t.Fatalf("element %d: %v round-tripped to %v", i, v, up.Data()[i])
		}
	}
	// Widened values convert back down without further change.
	down2 := ConvertFrom[float32](nil, up)
	bits32Equal(t, "f32→f64→f32", down, down2)
}
