package sparse

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Int8 sparse-kernel coverage: the implicit-ones incidence form, exact
// int32 reference parity for both SpMM epilogues, worker-count
// determinism, and zero allocation on warm pools.

func quantDense(rows, cols int, seed uint64, scale float32) *tensor.QMat {
	src := tensor.ConvertFrom[float32](nil, benchDense(rows, cols, seed))
	q := tensor.NewQMat(rows, cols, 0)
	tensor.QuantizeInto(kernels.Context{Workers: 1}, q, src, scale)
	return q
}

// TestQIncidenceMatchesIncidence: the int8 incidence builder produces
// the same sparsity structure as the float builder, with no value
// stream at all.
func TestQIncidenceMatchesIncidence(t *testing.T) {
	r := rng.New(3)
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = r.Intn(20)
	}
	want := IncidenceInto(new(CSR), 20, idx)
	got := QIncidenceInto(&QCSR{}, 20, idx)
	if got.Vals != nil || got.Scale != 1 {
		t.Fatal("incidence form must be implicit-ones")
	}
	if got.RowsN != want.RowsN || got.ColsN != want.ColsN {
		t.Fatal("incidence shape mismatch")
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] %d vs %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for i := range want.ColIdx {
		if got.ColIdx[i] != want.ColIdx[i] {
			t.Fatalf("ColIdx[%d] %d vs %d", i, got.ColIdx[i], want.ColIdx[i])
		}
	}
}

// TestQuantizeCSRSymmetric pins the per-tensor CSR scheme: scale
// maxabs/127, values clamped to ±127, structure copied.
func TestQuantizeCSRSymmetric(t *testing.T) {
	a := benchCSR(50, 4, 9)
	q := quantizeCSR(a)
	maxAbs := 0.0
	for _, v := range a.Vals {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	if q.Scale != float32(maxAbs/127) {
		t.Fatalf("scale %v, want %v", q.Scale, maxAbs/127)
	}
	for i, v := range q.Vals {
		if v < -127 || v > 127 {
			t.Fatalf("value %d out of symmetric range: %d", i, v)
		}
		want := math.Round(a.Vals[i] / (maxAbs / 127))
		if want > 127 {
			want = 127
		} else if want < -127 {
			want = -127
		}
		if int8(want) != v {
			t.Fatalf("value %d: %d, want %v", i, v, want)
		}
	}
}

// refQSpMM is the naive int32 reference with the same fused epilogue
// arithmetic as qspmmBody (dequantize, then round/clamp at outScale),
// serial and unoptimized.
func refQSpMM(a *QCSR, x *tensor.QMat, outScale float32) *tensor.QMat {
	out := tensor.NewQMat(a.RowsN, x.Cols(), outScale)
	dq := a.effScale() * x.Scale
	for i := 0; i < a.RowsN; i++ {
		for j := 0; j < x.Cols(); j++ {
			acc := int32(0)
			for e := a.RowPtr[i]; e < a.RowPtr[i+1]; e++ {
				v := int32(1)
				if a.Vals != nil {
					v = int32(a.Vals[e])
				}
				acc += v * int32(x.Data()[a.ColIdx[e]*x.Cols()+j])
			}
			r := math.Round(float64(float32(acc)*dq) / float64(outScale))
			if r > 127 {
				r = 127
			} else if r < -127 {
				r = -127
			}
			out.Data()[i*x.Cols()+j] = int8(r)
		}
	}
	return out
}

func qbitsEqual(t *testing.T, name string, want, got *tensor.QMat) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() || want.Scale != got.Scale {
		t.Fatalf("%s: shape/scale mismatch", name)
	}
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("%s: element %d differs: %d vs %d", name, i, got.Data()[i], v)
		}
	}
}

func TestQSpMMMatchesReference(t *testing.T) {
	r := rng.New(17)
	const outScale = 0.03
	for trial := 0; trial < 10; trial++ {
		n := r.Intn(40) + 10
		cols := r.Intn(12) + 1
		x := quantDense(n, cols, uint64(trial), 0.02)

		// Weighted CSR form.
		aq := quantizeCSR(benchCSR(n, 3, uint64(trial)+100))
		got := tensor.NewQMat(n, cols, 0)
		QSpMMQuantInto(kernels.Context{Workers: 1}, got, aq, x, outScale)
		qbitsEqual(t, "QSpMMQuantInto weighted", refQSpMM(aq, x, outScale), got)

		// Implicit-ones incidence form.
		idx := make([]int, 3*n)
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		inc := QIncidenceInto(&QCSR{}, n, idx)
		xe := quantDense(len(idx), cols, uint64(trial)+200, 0.04)
		gotI := tensor.NewQMat(n, cols, 0)
		QSpMMQuantInto(kernels.Context{Workers: 1}, gotI, inc, xe, outScale)
		qbitsEqual(t, "QSpMMQuantInto incidence", refQSpMM(inc, xe, outScale), gotI)
	}
}

func TestQSpMMWorkerCountParity(t *testing.T) {
	const n, cols = 300, 16
	aq := quantizeCSR(benchCSR(n, 6, 1))
	x := quantDense(n, cols, 3, 0.02)
	r := rng.New(5)
	idx := make([]int, 2*n)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	inc := QIncidenceInto(&QCSR{}, n, idx)
	xe := quantDense(len(idx), cols, 4, 0.04)

	ref := tensor.NewQMat(n, cols, 0)
	QSpMMQuantInto(kernels.Context{Workers: 1}, ref, aq, x, 0.03)
	refI := tensor.NewQMat(n, cols, 0)
	QSpMMQuantInto(kernels.Context{Workers: 1}, refI, inc, xe, 0.03)
	for _, w := range []int{2, 4, 7} {
		kc := kernels.Context{Workers: w}
		got := tensor.NewQMat(n, cols, 0)
		QSpMMQuantInto(kc, got, aq, x, 0.03)
		qbitsEqual(t, "QSpMMQuantInto weighted", ref, got)
		gotI := tensor.NewQMat(n, cols, 0)
		QSpMMQuantInto(kc, gotI, inc, xe, 0.03)
		qbitsEqual(t, "QSpMMQuantInto incidence", refI, gotI)
	}
}

func TestQSpMMZeroAllocs(t *testing.T) {
	const n, cols = 16, 8
	r := rng.New(7)
	idx := make([]int, 2*n)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	inc := &QCSR{}
	xe := quantDense(len(idx), cols, 2, 0.04)
	outQ := tensor.NewQMat(n, cols, 0)
	kc := kernels.Context{Workers: 1}
	allocs := testing.AllocsPerRun(100, func() {
		QIncidenceInto(inc, n, idx)
		QSpMMQuantInto(kc, outQ, inc, xe, 0.03)
	})
	if allocs != 0 {
		t.Fatalf("int8 sparse kernels allocated %.1f per run, want 0", allocs)
	}
}

// TestQSpMMBytes: the int8 SpMM's result is a quarter the width of the
// float32 one, so a call with its output must allocate at most 60% of
// the bytes of the float32 SpMM at the same shape.
func TestQSpMMBytes(t *testing.T) {
	a64 := benchCSR(2000, 8, 1)
	a32, x32 := convertCSR[float32](a64), tensor.ConvertFrom[float32](nil, benchDense(2000, 32, 3))
	a8, x8 := quantizeCSR(a64), quantDense(2000, 32, 3, 0.01)
	kc := kernels.Context{Workers: 1}
	b32 := bytesPerRun(10, func() { SpMMIntoCtx(kc, tensor.NewOf[float32](2000, 32), a32, x32) })
	b8 := bytesPerRun(10, func() { QSpMMQuantInto(kc, tensor.NewQMat(2000, 32, 0), a8, x8, 0.05) })
	if b8 > 0.6*b32 {
		t.Fatalf("QSpMMQuantInto allocated %.0f B against %.0f B for f32 SpMM, want ≤ 60%%", b8, b32)
	}
}

// quantizeCSR quantizes a float64 CSR at one per-tensor symmetric
// scale (maxabs/127; 1 when all values are zero).
func quantizeCSR(a *CSR) *QCSR {
	maxAbs := 0.0
	for _, v := range a.Vals {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = maxAbs / 127
	}
	q := &QCSR{
		RowsN:  a.RowsN,
		ColsN:  a.ColsN,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Vals:   make([]int8, len(a.Vals)),
		Scale:  float32(scale),
	}
	for i, v := range a.Vals {
		r := math.Round(v / scale)
		if r > 127 {
			r = 127
		} else if r < -127 {
			r = -127
		}
		q.Vals[i] = int8(r)
	}
	return q
}
