package tensor

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
)

// Int8 kernel coverage: quantization semantics (symmetric, ±127, no
// −128), the checkpoint-v4 requantization identity, exact int32
// reference parity for the fused GEMMs, worker-count determinism, and
// the zero-allocation contract on warm pools.

func qbitsEqual(t *testing.T, name string, want, got *QMat) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() || want.Scale != got.Scale {
		t.Fatalf("%s: shape/scale mismatch", name)
	}
	w, g := want.Data(), got.Data()
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: element %d differs: %d vs %d", name, i, w[i], g[i])
		}
	}
}

func TestQuantizeValueSymmetricClamp(t *testing.T) {
	cases := []struct {
		v, scale float64
		want     int8
	}{
		{0, 1, 0},
		{0.5, 1, 1},   // half rounds away from zero
		{-0.5, 1, -1}, // symmetric on the negative side
		{1e9, 1, 127}, // clamps high
		{-1e9, 1, -127} /* never −128 */, {126.4, 1, 126},
		{2.5, 0.5, 5},
	}
	for _, c := range cases {
		if got := quantizeValue(c.v, c.scale); got != c.want {
			t.Fatalf("quantizeValue(%v, %v) = %d, want %d", c.v, c.scale, got, c.want)
		}
	}
}

// TestQuantizeWeightsPerColumn pins the per-channel scheme: every
// nonzero column has scale maxabs/127 and hits ±127 at its extreme
// element (which is what makes the v4 round trip exact), zero columns
// get scale 1, and no element ever quantizes to −128.
func TestQuantizeWeightsPerColumn(t *testing.T) {
	w := benchMat(17, 9, 3)
	for i := 0; i < 17; i++ {
		w.Set(i, 4, 0) // an all-zero column
	}
	q := QuantizeWeights(w)
	for j := 0; j < 9; j++ {
		maxAbs := 0.0
		for i := 0; i < 17; i++ {
			if a := math.Abs(w.At(i, j)); a > maxAbs {
				maxAbs = a
			}
		}
		if j == 4 {
			if q.ColScale[j] != 1 {
				t.Fatalf("zero column scale %v, want 1", q.ColScale[j])
			}
			continue
		}
		if got, want := q.ColScale[j], float32(maxAbs/127); got != want {
			t.Fatalf("column %d scale %v, want %v", j, got, want)
		}
		peak := int8(0)
		for i := 0; i < 17; i++ {
			v := q.Data()[i*9+j]
			if v == -128 {
				t.Fatalf("column %d produced −128", j)
			}
			if v > peak {
				peak = v
			}
			if -v > peak {
				peak = -v
			}
		}
		if peak != 127 {
			t.Fatalf("column %d peaks at %d, want 127", j, peak)
		}
	}
}

// TestQuantizeWeightsRequantizeIdentity is the checkpoint-v4 exactness
// property: dequantizing an int8 weight matrix to float64 and running
// QuantizeWeights again reproduces the identical payload and scales,
// because each column's max |q| is exactly 127 so the re-derived scale
// equals the stored one.
func TestQuantizeWeightsRequantizeIdentity(t *testing.T) {
	w := benchMat(23, 11, 7)
	q := QuantizeWeights(w)
	deq := New(23, 11)
	for i := 0; i < 23; i++ {
		for j := 0; j < 11; j++ {
			deq.Set(i, j, float64(q.Data()[i*11+j])*float64(q.ColScale[j]))
		}
	}
	q2 := QuantizeWeights(deq)
	for j, s := range q.ColScale {
		if q2.ColScale[j] != s {
			t.Fatalf("column %d scale drifted: %v vs %v", j, q2.ColScale[j], s)
		}
	}
	for i, v := range q.Data() {
		if q2.Data()[i] != v {
			t.Fatalf("element %d drifted: %d vs %d", i, q2.Data()[i], v)
		}
	}
}

// refQGEMM is the naive int32 reference of the fused GEMM epilogue —
// same accumulation domain and same epilogue arithmetic, no unrolling,
// no zero skipping, no parallelism.
func refQGEMM(a *QMat, w *QWeights, bias []float32, relu bool) *Dense32 {
	out := NewOf[float32](a.Rows(), w.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < w.Cols(); j++ {
			acc := int32(0)
			for k := 0; k < a.Cols(); k++ {
				acc += int32(a.Data()[i*a.Cols()+k]) * int32(w.Data()[k*w.Cols()+j])
			}
			f := float32(acc)*a.Scale*w.ColScale[j] + bias[j]
			if relu && f < 0 {
				f = 0
			}
			out.Set(i, j, f)
		}
	}
	return out
}

func quantFixtures(rows, k, n int, seed uint64) (*QMat, *QWeights, []float32) {
	src := benchMat32(rows, k, seed)
	a := NewQMat(rows, k, 0)
	QuantizeInto(kernels.Context{Workers: 1}, a, src, 0.01)
	w := QuantizeWeights(benchMat(k, n, seed+1))
	biasM := benchMat32(1, n, seed+2)
	return a, w, biasM.Data()
}

func TestQGEMMMatchesReference(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		rows, k, n := r.Intn(30)+1, r.Intn(40)+1, r.Intn(20)+1
		a, w, bias := quantFixtures(rows, k, n, uint64(trial))
		kc := kernels.Context{Workers: 1}

		want := refQGEMM(a, w, bias, false)
		got := NewOf[float32](rows, n)
		QMatMulBiasInto(kc, got, a, w, bias, false)
		bits32Equal(t, "QMatMulBiasInto", want, got)

		wantR := refQGEMM(a, w, bias, true)
		gotR := NewOf[float32](rows, n)
		QMatMulBiasInto(kc, gotR, a, w, bias, true)
		bits32Equal(t, "QMatMulBiasInto+ReLU", wantR, gotR)

		// The requantizing epilogue is the float epilogue followed by
		// quantizeValue at the output scale.
		const outScale = 0.02
		gotQ := NewQMat(rows, n, 0)
		QMatMulBiasReLUQuantInto(kc, gotQ, a, w, bias, outScale)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				want := quantizeValue(float64(wantR.At(i, j)), outScale)
				if got := gotQ.Data()[i*n+j]; got != want {
					t.Fatalf("trial %d: requant epilogue (%d,%d) = %d, want %d", trial, i, j, got, want)
				}
			}
		}
	}
}

// TestQGEMMDequantizeTracksFloat bounds the end-to-end quantization
// error of one fused layer against the float64 reference on the same
// weights: with unit-scale inputs and per-channel weight scales the
// fused int8 GEMM must stay within the coarse quantization-noise
// budget — a sanity check that scales compose in the right order.
func TestQGEMMDequantizeTracksFloat(t *testing.T) {
	src64 := benchMat(40, 24, 5)
	w64 := benchMat(24, 16, 6)
	bias64 := benchMat(1, 16, 7)

	src32 := ConvertFrom[float32](nil, src64)
	maxAbs := 0.0
	for _, v := range src64.Data() {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	a := NewQMat(40, 24, 0)
	QuantizeInto(kernels.Context{Workers: 1}, a, src32, float32(maxAbs/127))
	qw := QuantizeWeights(w64)

	got := NewOf[float32](40, 16)
	QMatMulBiasInto(kernels.Context{Workers: 1}, got, a, qw, ConvertFrom[float32](nil, bias64).Data(), false)

	want := AddBias(MatMul(src64, w64), bias64)
	worst := 0.0
	for i, v := range want.Data() {
		if d := math.Abs(v - float64(got.Data()[i])); d > worst {
			worst = d
		}
	}
	// k=24 products, each with ~maxAbs/254 input noise — 0.1 is ~10×
	// slack over the expected RMS for these unit-scale fixtures.
	if worst > 0.1 {
		t.Fatalf("int8 GEMM drifts %v from f64", worst)
	}
}

var quantParityWorkers = []int{1, 2, 4, 7}

func TestQuantKernelsWorkerCountParity(t *testing.T) {
	src := benchMat32(130, 40, 1)
	a, w, bias := quantFixtures(130, 40, 24, 9)
	b := NewQMat(130, 24, 0)
	QuantizeInto(kernels.Context{Workers: 1}, b, benchMat32(130, 24, 2), 0.05)

	var refQ, refH, refC *QMat
	var refF *Dense32
	for wi, workers := range quantParityWorkers {
		kc := kernels.Context{Workers: workers}
		q := NewQMat(130, 40, 0)
		QuantizeInto(kc, q, src, 0.01)
		f := NewOf[float32](130, 24)
		QMatMulBiasInto(kc, f, a, w, bias, true)
		h := NewQMat(130, 24, 0)
		QMatMulBiasReLUQuantInto(kc, h, a, w, bias, 0.05)
		c := NewQMat(130, 48, h.Scale)
		QConcatColsInto(kc, c, h, b)
		if wi == 0 {
			refQ, refF, refH, refC = q, f, h, c
			continue
		}
		qbitsEqual(t, "QuantizeInto", refQ, q)
		bits32Equal(t, "QMatMulBiasInto", refF, f)
		qbitsEqual(t, "QMatMulBiasReLUQuantInto", refH, h)
		qbitsEqual(t, "QConcatColsInto", refC, c)
	}
}

func TestQuantIntoKernelsZeroAllocs(t *testing.T) {
	src := benchMat32(6, 8, 1)
	a, w, bias := quantFixtures(6, 8, 8, 3)
	q := NewQMat(6, 8, 0)
	f := NewOf[float32](6, 8)
	h := NewQMat(6, 8, 0)
	c := NewQMat(6, 16, 0.05)
	// Spread an existing slice: a variadic literal at the call site
	// would itself allocate, which is the caller's charge, not the
	// kernel's.
	pair := []*QMat{h, h}
	kc := kernels.Context{Workers: 1}
	allocs := testing.AllocsPerRun(100, func() {
		QuantizeInto(kc, q, src, 0.01)
		QMatMulBiasInto(kc, f, a, w, bias, true)
		QMatMulBiasReLUQuantInto(kc, h, a, w, bias, 0.05)
		c.Scale = 0.05
		QConcatColsInto(kc, c, pair...)
		DequantizeInto(f, h)
	})
	if allocs != 0 {
		t.Fatalf("int8 Into kernels allocated %.1f per run, want 0", allocs)
	}
}

func TestQConcatColsScaleMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QConcatColsInto accepted mismatched scales")
		}
	}()
	out := NewQMat(2, 4, 0.5)
	QConcatColsInto(kernels.Context{Workers: 1}, out, NewQMat(2, 2, 0.5), NewQMat(2, 2, 0.25))
}

func TestQuantizeIntoRejectsBadScale(t *testing.T) {
	for _, scale := range []float32{0, -1, float32(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("QuantizeInto accepted scale %v", scale)
				}
			}()
			QuantizeInto(kernels.Context{Workers: 1}, NewQMat(1, 1, 0), NewOf[float32](1, 1), scale)
		}()
	}
}
