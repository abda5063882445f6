package tensor

import (
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
		MatMulInto(out, a, b)
	})
	if allocs != 0 {
		t.Fatalf("MatMulInto allocated %.1f per run, want 0", allocs)
	}
}

func TestBackpropKernelsIntoZeroAllocs(t *testing.T) {
	g, w := benchMat(6, 8, 1), benchMat(5, 8, 2)
	a2, g2 := benchMat(6, 8, 3), benchMat(6, 5, 4)
	outT := New(6, 5)
	outTM := New(8, 5)
	allocs := testing.AllocsPerRun(100, func() {
		MatMulTInto(outT, g, w)
		TMatMulInto(outTM, a2, g2)
	})
	if allocs != 0 {
		t.Fatalf("MatMulTInto+TMatMulInto allocated %.1f per run, want 0", allocs)
	}
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
		AddBiasInto(out, a, bias)
		a.ColSumsInto(cs)
		a.RowSumsInto(rs)
		GatherRowsIntoCtx(kernels.Context{}, gather, a, idx)
		ExtractColsInto(band, a, 2)
	})
	if allocs != 0 {
		t.Fatalf("elementwise Into kernels allocated %.1f per run, want 0", allocs)
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
		MatMulInto(out, a, b)
		if MatMul(a, b).MaxAbsDiff(out) != 0 {
			t.Fatalf("trial %d: MatMulInto differs", trial)
		}

		g := RandN(r, m, n, 1)
		w := RandN(r, k, n, 1)
		outT := New(m, k)
		outT.Fill(777)
		MatMulTInto(outT, g, w)
		if MatMulT(g, w).MaxAbsDiff(outT) != 0 {
			t.Fatalf("trial %d: MatMulTInto differs", trial)
		}

		x := RandN(r, m, k, 1)
		outTM2 := New(k, k)
		outTM2.Fill(777)
		TMatMulInto(outTM2, x, x)
		if TMatMul(x, x).MaxAbsDiff(outTM2) != 0 {
			t.Fatalf("trial %d: TMatMulInto differs", trial)
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
		AddBiasInto(out2, c, bias)
		if AddBias(c, bias).MaxAbsDiff(out2) != 0 {
			t.Fatalf("trial %d: AddBiasInto differs", trial)
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
		ConcatColsInto(cc, c, d)
		if ConcatCols(c, d).MaxAbsDiff(cc) != 0 {
			t.Fatalf("trial %d: ConcatColsInto differs", trial)
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
