package sparse

import (
	"slices"
	"testing"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Float32 sparse-kernel coverage: worker-count determinism, f64 parity
// within float32 rounding tolerance, and zero-allocation on warm pools.

// convertCSR returns src with values converted to element type D
// (float64→float32 rounds; float32→float64 is exact) and its structural
// arrays copied.
func convertCSR[D, S fp.Float](src *CSROf[S]) *CSROf[D] {
	out := &CSROf[D]{
		RowsN:  src.RowsN,
		ColsN:  src.ColsN,
		RowPtr: slices.Clone(src.RowPtr),
		ColIdx: slices.Clone(src.ColIdx),
		Vals:   make([]D, len(src.Vals)),
	}
	for i, v := range src.Vals {
		out.Vals[i] = D(v)
	}
	return out
}

// fixture32 converts the shared f64 fixtures (same RNG streams) to f32.
func fixture32(n, nnzPerRow int, seed uint64) *CSROf[float32] {
	return convertCSR[float32](benchCSR(n, nnzPerRow, seed))
}

func dense32Of(d *tensor.Dense, _ uint64) *tensor.Matrix[float32] {
	return tensor.ConvertFrom[float32](nil, d)
}

func bits32Equal(t *testing.T, name string, want, got *tensor.Matrix[float32]) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Fatalf("%s: shape mismatch", name)
	}
	w, g := want.Data(), got.Data()
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, w[i], g[i])
		}
	}
}

func TestSpMM32WorkerCountParity(t *testing.T) {
	a := fixture32(300, 6, 1)
	x := dense32Of(benchDense(300, 16, 3), 3)
	res := dense32Of(benchDense(300, 16, 4), 4)
	ref := tensor.NewOf[float32](300, 16)
	SpMMIntoCtx(kernels.Context{Workers: 1}, ref, a, x)
	refAdd := tensor.NewOf[float32](300, 16)
	SpMMAddIntoCtx(kernels.Context{Workers: 1}, refAdd, a, x, res)
	for _, w := range []int{2, 4, 7} {
		got := tensor.NewOf[float32](300, 16)
		SpMMIntoCtx(kernels.Context{Workers: w}, got, a, x)
		bits32Equal(t, "SpMM f32", ref, got)
		gotAdd := tensor.NewOf[float32](300, 16)
		SpMMAddIntoCtx(kernels.Context{Workers: w}, gotAdd, a, x, res)
		bits32Equal(t, "SpMMAdd f32", refAdd, gotAdd)
	}
}

// TestSpMM32MatchesF64WithinTolerance bounds f32 accumulation drift
// against the f64 kernel on f32-representable inputs.
func TestSpMM32MatchesF64WithinTolerance(t *testing.T) {
	a64 := benchCSR(300, 6, 1)
	x64 := benchDense(300, 16, 3)
	a32 := convertCSR[float32](a64)
	x32 := tensor.ConvertFrom[float32](nil, x64)
	// Round the f64 operands so both precisions start from the same values.
	a64 = convertCSR[float64](a32)
	tensor.Convert(x64, x32)

	want := tensor.New(300, 16)
	SpMMIntoCtx(kernels.Context{}, want, a64, x64)
	got32 := tensor.NewOf[float32](300, 16)
	SpMMIntoCtx(kernels.Context{}, got32, a32, x32)
	got := tensor.ConvertFrom[float64](nil, got32)
	if d := want.MaxAbsDiff(got); d > 1e-3 {
		t.Fatalf("f32 SpMM drifts %v from f64", d)
	}
}

func TestSparse32ZeroAllocsWarm(t *testing.T) {
	a := fixture32(64, 4, 1)
	x := dense32Of(benchDense(64, 8, 3), 3)
	res := dense32Of(benchDense(64, 8, 4), 4)
	out := tensor.NewOf[float32](64, 8)
	allocs := testing.AllocsPerRun(100, func() {
		SpMMIntoCtx(kernels.Context{}, out, a, x)
		SpMMAddIntoCtx(kernels.Context{}, out, a, x, res)
	})
	if allocs != 0 {
		t.Fatalf("warm f32 sparse kernels allocated %.1f per run, want 0", allocs)
	}
}
