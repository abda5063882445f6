package tensor

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/workspace"
)

// Warm-path allocation budgets: sizes stay below the parallel grain so
// the kernels run inline and measure only their own allocations.

func TestMatMulIntoZeroAllocs(t *testing.T) {
	a, b := benchMat(6, 9, 1), benchMat(9, 7, 2)
	out := New(6, 7)
	allocs := testing.AllocsPerRun(100, func() {
		MatMulIntoCtx(kernels.Context{}, out, a, b)
	})
	if allocs != 0 {
		t.Fatalf("MatMulInto allocated %.1f per run, want 0", allocs)
	}
}

// TestBackpropKernelsIntoZeroAllocs pins both backward GEMMs at shapes
// that reach their AVX tiles and every remainder: MatMulT's 7 rows (three
// 2-row tiles and an odd row), 17 output columns (four 4-wide tiles and
// one more) and k = 18 (four quads and a 2-term tail); TMatMul's 19
// output rows and 35 columns (two 16-wide tiles and 3 more).
func TestBackpropKernelsIntoZeroAllocs(t *testing.T) {
	forEachGEMMKernel(t, func(t *testing.T) {
		g, w := benchMat(7, 18, 1), benchMat(17, 18, 2)
		a2, g2 := benchMat(9, 19, 3), benchMat(9, 35, 4)
		outT := New(7, 17)
		outTM := New(19, 35)
		kc := kernels.Context{Workers: 1}
		allocs := testing.AllocsPerRun(100, func() {
			MatMulTIntoCtx(kc, outT, g, w)
			TMatMulIntoCtx(kc, outTM, a2, g2)
		})
		if allocs != 0 {
			t.Fatalf("MatMulTIntoCtx+TMatMulIntoCtx allocated %.1f per run, want 0", allocs)
		}
	})
}

func TestElementwiseIntoZeroAllocs(t *testing.T) {
	a, b := benchMat(8, 8, 1), benchMat(8, 8, 2)
	bias := benchMat(1, 8, 3)
	out := New(8, 8)
	cs, rs := New(1, 8), New(8, 1)
	idx := []int{3, 1, 7, 0}
	gather := New(4, 8)
	band := New(8, 4)
	allocs := testing.AllocsPerRun(100, func() {
		AddInto(out, a, b)
		SubInto(out, a, b)
		MulInto(out, a, b)
		ScaleInto(out, 2.5, a)
		AddBiasIntoCtx(kernels.Context{}, out, a, bias)
		a.ColSumsInto(cs)
		a.RowSumsInto(rs)
		GatherRowsIntoCtx(kernels.Context{}, gather, a, idx)
		ExtractColsInto(band, a, 2)
	})
	if allocs != 0 {
		t.Fatalf("elementwise Into kernels allocated %.1f per run, want 0", allocs)
	}
}

// TestValueKernelAllocs bounds the value-returning kernels at their
// benchmark shapes on the serial path: each allocates its result (the
// matrix header and its data) and nothing else.
func TestValueKernelAllocs(t *testing.T) {
	a, w, g := benchMat(4096, 64, 1), benchMat(64, 64, 2), benchMat(4096, 64, 2)
	bias := benchMat(1, 64, 2)
	r := rng.New(3)
	idx := make([]int, 8192)
	for i := range idx {
		idx[i] = r.Intn(4096)
	}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"MatMul", 2, func() { MatMul(a, w) }},
		{"MatMulT", 2, func() { MatMulT(a, w) }},
		{"TMatMul", 2, func() { TMatMul(a, g) }},
		{"GatherRows", 2, func() { GatherRows(a, idx) }},
		{"AddBias", 2, func() { AddBias(a, bias) }},
	} {
		if allocs := testing.AllocsPerRun(5, tc.run); allocs > tc.max {
			t.Errorf("%s allocated %.1f per run, want ≤ %.0f", tc.name, allocs, tc.max)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs after a warm-up call, with
// GOMAXPROCS at 1 so the kernels take their serial path.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestMatMulF32Bytes: the float32 GEMM writes a result half the width
// of the float64 one, so a call must allocate at most 75% of the bytes.
func TestMatMulF32Bytes(t *testing.T) {
	a64, w64 := benchMat(4096, 64, 1), benchMat(64, 64, 2)
	a32, w32 := benchMat32(4096, 64, 1), benchMat32(64, 64, 2)
	b64 := bytesPerRun(5, func() { MatMul(a64, w64) })
	b32 := bytesPerRun(5, func() { MatMul(a32, w32) })
	if b32 > 0.75*b64 {
		t.Fatalf("MatMul allocated %.0f B at f32 against %.0f B at f64, want ≤ 75%%", b32, b64)
	}
}

// Parity: every Into variant must be bit-identical to its value-returning
// reference on randomized inputs.

func TestIntoVariantsMatchReference(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 30; trial++ {
		m, k, n := r.Intn(12)+1, r.Intn(12)+1, r.Intn(12)+1
		a, b := RandN(r, m, k, 1), RandN(r, k, n, 1)
		out := New(m, n)
		out.Fill(777)
		MatMulIntoCtx(kernels.Context{}, out, a, b)
		if MatMul(a, b).MaxAbsDiff(out) != 0 {
			t.Fatalf("trial %d: MatMulInto differs", trial)
		}

		g := RandN(r, m, n, 1)
		w := RandN(r, k, n, 1)
		outT := New(m, k)
		outT.Fill(777)
		MatMulTIntoCtx(kernels.Context{}, outT, g, w)
		if MatMulT(g, w).MaxAbsDiff(outT) != 0 {
			t.Fatalf("trial %d: MatMulTIntoCtx differs", trial)
		}

		x := RandN(r, m, k, 1)
		outTM2 := New(k, k)
		outTM2.Fill(777)
		TMatMulIntoCtx(kernels.Context{}, outTM2, x, x)
		if TMatMul(x, x).MaxAbsDiff(outTM2) != 0 {
			t.Fatalf("trial %d: TMatMulIntoCtx differs", trial)
		}

		c, d := RandN(r, m, k, 1), RandN(r, m, k, 1)
		out2 := New(m, k)
		AddInto(out2, c, d)
		if Add(c, d).MaxAbsDiff(out2) != 0 {
			t.Fatalf("trial %d: AddInto differs", trial)
		}
		SubInto(out2, c, d)
		if Sub(c, d).MaxAbsDiff(out2) != 0 {
			t.Fatalf("trial %d: SubInto differs", trial)
		}
		MulInto(out2, c, d)
		if Mul(c, d).MaxAbsDiff(out2) != 0 {
			t.Fatalf("trial %d: MulInto differs", trial)
		}
		ScaleInto(out2, -1.5, c)
		if Scale(-1.5, c).MaxAbsDiff(out2) != 0 {
			t.Fatalf("trial %d: ScaleInto differs", trial)
		}

		bias := RandN(r, 1, k, 1)
		AddBiasIntoCtx(kernels.Context{}, out2, c, bias)
		if AddBias(c, bias).MaxAbsDiff(out2) != 0 {
			t.Fatalf("trial %d: AddBiasIntoCtx differs", trial)
		}

		cs := New(1, k)
		c.ColSumsInto(cs)
		if c.ColSums().MaxAbsDiff(cs) != 0 {
			t.Fatalf("trial %d: ColSumsInto differs", trial)
		}
		rs := New(m, 1)
		c.RowSumsInto(rs)
		if c.RowSums().MaxAbsDiff(rs) != 0 {
			t.Fatalf("trial %d: RowSumsInto differs", trial)
		}

		idx := make([]int, r.Intn(2*m)+1)
		for i := range idx {
			idx[i] = r.Intn(m)
		}
		gat := New(len(idx), k)
		GatherRowsIntoCtx(kernels.Context{}, gat, c, idx)
		for i, j := range idx {
			if !slices.Equal(gat.Row(i), c.Row(j)) {
				t.Fatalf("trial %d: GatherRowsIntoCtx row %d is not row %d", trial, i, j)
			}
		}

		cc := New(m, 2*k)
		ConcatColsIntoCtx(kernels.Context{}, cc, c, d)
		if ConcatCols(c, d).MaxAbsDiff(cc) != 0 {
			t.Fatalf("trial %d: ConcatColsIntoCtx differs", trial)
		}
		// ExtractColsInto inverts ConcatCols segments.
		back := New(m, k)
		ExtractColsInto(back, cc, k)
		if back.MaxAbsDiff(d) != 0 {
			t.Fatalf("trial %d: ExtractColsInto differs", trial)
		}
	}
}

func TestNewFromArenaZeroedAndRecycled(t *testing.T) {
	a := workspace.NewArena()
	m := NewFrom(a, 5, 7)
	if m.Rows() != 5 || m.Cols() != 7 {
		t.Fatal("shape wrong")
	}
	for _, v := range m.Data() {
		if v != 0 {
			t.Fatal("arena matrix not zeroed")
		}
	}
	m.Fill(3)
	a.Reset()
	m2 := NewFrom(a, 5, 7)
	for _, v := range m2.Data() {
		if v != 0 {
			t.Fatal("recycled arena matrix not zeroed")
		}
	}
	a.Reset()
	if nil2 := NewFrom(nil, 2, 2); nil2.Size() != 4 {
		t.Fatal("nil arena fallback broken")
	}
}
