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
	cat, parts := New(8, 16), []*Dense{a, b}
	allocs := testing.AllocsPerRun(100, func() {
		AddInto(out, a, b)
		MulInto(out, a, b)
		ScaleInto(out, 2.5, a)
		AddBiasIntoCtx(kernels.Context{}, out, a, bias)
		a.ColSumsInto(cs)
		a.RowSumsInto(rs)
		GatherRowsIntoCtx(kernels.Context{}, gather, a, idx)
		ExtractColsInto(band, a, 2)
		ConcatColsIntoCtx(kernels.Context{}, cat, parts...)
	})
	if allocs != 0 {
		t.Fatalf("elementwise Into kernels allocated %.1f per run, want 0", allocs)
	}
}

// TestValueKernelAllocs bounds the value-returning kernels at their
// benchmark shapes on the serial path: each allocates its result (the
// matrix header and its data) and nothing else.
func TestValueKernelAllocs(t *testing.T) {
	a, w := benchMat(4096, 64, 1), benchMat(64, 64, 2)
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
		{"GatherRows", 2, func() { GatherRows(a, idx) }},
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

// Parity: every Into variant must be bit-identical to its reference on
// randomized inputs: the value-returning form where one exists, else the
// kernel's contract written flat.

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
		if refMatMulT(g, w).MaxAbsDiff(outT) != 0 {
			t.Fatalf("trial %d: MatMulTIntoCtx differs", trial)
		}

		x := RandN(r, m, k, 1)
		outTM2 := New(k, k)
		outTM2.Fill(777)
		TMatMulIntoCtx(kernels.Context{}, outTM2, x, x)
		if refTMatMul(x, x).MaxAbsDiff(outTM2) != 0 {
			t.Fatalf("trial %d: TMatMulIntoCtx differs", trial)
		}

		c, d := RandN(r, m, k, 1), RandN(r, m, k, 1)
		out2 := New(m, k)
		for _, op := range []struct {
			name string
			into func(out, a, b *Dense)
			f    func(x, y float64) float64
		}{
			{"AddInto", AddInto[float64], func(x, y float64) float64 { return x + y }},
			{"MulInto", MulInto[float64], func(x, y float64) float64 { return x * y }},
		} {
			op.into(out2, c, d)
			for i, v := range out2.Data() {
				if want := op.f(c.Data()[i], d.Data()[i]); v != want {
					t.Fatalf("trial %d: %s element %d = %v, want %v", trial, op.name, i, v, want)
				}
			}
		}
		ScaleInto(out2, -1.5, c)
		for i, v := range c.Data() {
			if out2.Data()[i] != -1.5*v {
				t.Fatalf("trial %d: ScaleInto element %d = %v, want %v", trial, i, out2.Data()[i], -1.5*v)
			}
		}

		bias := RandN(r, 1, k, 1)
		AddBiasIntoCtx(kernels.Context{}, out2, c, bias)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				if want := c.At(i, j) + bias.At(0, j); out2.At(i, j) != want {
					t.Fatalf("trial %d: AddBiasIntoCtx (%d,%d) = %v, want %v", trial, i, j, out2.At(i, j), want)
				}
			}
		}

		cs := New(1, k)
		cs.Fill(777)
		c.ColSumsInto(cs)
		if want := rowSums(c.Transpose()).Transpose(); want.MaxAbsDiff(cs) != 0 {
			t.Fatalf("trial %d: ColSumsInto differs", trial)
		}
		rs := New(m, 1)
		c.RowSumsInto(rs)
		if rowSums(c).MaxAbsDiff(rs) != 0 {
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
		cc.Fill(777)
		ConcatColsIntoCtx(kernels.Context{}, cc, c, d)
		for i := 0; i < m; i++ {
			if !slices.Equal(cc.Row(i), append(slices.Clone(c.Row(i)), d.Row(i)...)) {
				t.Fatalf("trial %d: ConcatColsIntoCtx row %d differs", trial, i)
			}
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

// TestGEMMParallelAllocs pins the warm allocation count of the packed
// GEMM on its parallel path (ROADMAP item 8's floor). At Workers: 2 the
// row loop forks, and parallel.fanOut allocates its job, the job's
// closure and a heap copy of the operand context, which is too large
// for the closure to hold by value: 3 per call, plus 2 in a call that
// starts a helper goroutine because none is idle. The kernel itself
// allocates nothing; TestTiledKernelsZeroAllocsWarm pins the serial path
// at 0. AllocsPerRun runs at GOMAXPROCS 1, so each call yields once to
// let the helper it woke finish and go idle, as a second P would.
func TestGEMMParallelAllocs(t *testing.T) {
	const bound = 4
	a, b := benchMat(64, 24, 1), benchMat(24, 20, 2)
	bias := benchMat(1, 20, 3)
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = 63 - i
	}
	out := New(64, 20)
	kc := kernels.Context{Workers: 2}
	forEachGEMMKernel(t, func(t *testing.T) {
		for name, call := range map[string]func(){
			"MatMulIntoCtx": func() { MatMulIntoCtx(kc, out, a, b) },
			"MatMulSegsIntoCtx": func() {
				MatMulSegsIntoCtx(kc, out, b, bias, true, Seg[float64]{M: a, Idx: idx})
			},
		} {
			call() // warm the panel and scratch pools
			allocs := testing.AllocsPerRun(200, func() {
				call()
				runtime.Gosched()
			})
			if allocs > bound {
				t.Fatalf("%s at 2 workers allocated %.2f per call, want at most %d", name, allocs, bound)
			}
		}
	})
}

// rowSums is the plain per-row sum, left to right: the reference for
// RowSumsInto and, through a transpose, ColSumsInto.
func rowSums(m *Dense) *Dense {
	out := New(m.Rows(), 1)
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			out.Data()[i] += v
		}
	}
	return out
}
