package tensor

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
)

// Worker-count parity: every parallel kernel must produce bitwise
// identical output at workers ∈ {1, 2, 4, 7} — the odd count exercises
// uneven chunk boundaries — and every fused kernel must be bitwise
// identical to the unfused chain it replaces. Shapes are deliberately
// not multiples of the worker counts or grains.

var parityWorkers = []int{1, 2, 4, 7}

func bitsEqual(t *testing.T, name string, want, got *Dense) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, want.Rows(), want.Cols(), got.Rows(), got.Cols())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, wd[i], gd[i])
		}
	}
}

func parityIdx(r *rng.Rand, n, max int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(max)
	}
	return idx
}

func TestDenseKernelsWorkerCountParity(t *testing.T) {
	r := rng.New(11)
	a := RandN(r, 37, 23, 1)
	b := RandN(r, 23, 29, 1)
	bt := RandN(r, 29, 23, 1)
	g := RandN(r, 37, 29, 1)
	idx := parityIdx(r, 53, 37)

	type kernel struct {
		name string
		run  func(kc kernels.Context) *Dense
	}
	kernelsUnderTest := []kernel{
		{"MatMulIntoCtx", func(kc kernels.Context) *Dense {
			out := New(37, 29)
			MatMulIntoCtx(kc, out, a, b)
			return out
		}},
		{"MatMulTIntoCtx", func(kc kernels.Context) *Dense {
			out := New(37, 29)
			MatMulTIntoCtx(kc, out, a, bt)
			return out
		}},
		{"TMatMulIntoCtx", func(kc kernels.Context) *Dense {
			out := New(29, 23)
			TMatMulIntoCtx(kc, out, g, a)
			return out
		}},
		{"GatherRowsIntoCtx", func(kc kernels.Context) *Dense {
			out := New(53, 23)
			GatherRowsIntoCtx(kc, out, a, idx)
			return out
		}},
		{"GatherConcat3IntoCtx", func(kc kernels.Context) *Dense {
			out := New(53, 3*23)
			GatherConcat3IntoCtx(kc, out, a, idx, a, idx, a, idx)
			return out
		}},
	}
	for _, k := range kernelsUnderTest {
		ref := k.run(kernels.Context{Workers: 1})
		for _, w := range parityWorkers[1:] {
			bitsEqual(t, k.name, ref, k.run(kernels.Context{Workers: w}))
		}
	}
}

func TestAddBiasReLUMatchesUnfused(t *testing.T) {
	r := rng.New(12)
	m := RandN(r, 19, 13, 1)
	bias := RandN(r, 1, 13, 1)
	ref := New(19, 13)
	AddBiasRef(ref, m, bias)
	for i, v := range ref.Data() {
		if v < 0 {
			ref.Data()[i] = 0
		}
	}
	out := New(19, 13)
	AddBiasReLURef(out, m, bias)
	bitsEqual(t, "AddBiasReLU vs unfused", ref, out)
}

func TestGatherConcat3MatchesUnfused(t *testing.T) {
	r := rng.New(13)
	x := RandN(r, 31, 7, 1)
	e := RandN(r, 41, 5, 1)
	src := parityIdx(r, 41, 31)
	dst := parityIdx(r, 41, 31)

	// Filter shape: [x[src] ‖ x[dst] ‖ e].
	ref := concatCols(GatherRows(x, src), GatherRows(x, dst), e)
	out := New(41, 7+7+5)
	for _, w := range parityWorkers {
		GatherConcat3IntoCtx(kernels.Context{Workers: w}, out, x, src, x, dst, e, nil)
		bitsEqual(t, "GatherConcat3 filter shape", ref, out)
	}

	// IGNN shape: [e ‖ x[src] ‖ x[dst]].
	ref2 := concatCols(e, GatherRows(x, src), GatherRows(x, dst))
	out2 := New(41, 5+7+7)
	for _, w := range parityWorkers {
		GatherConcat3IntoCtx(kernels.Context{Workers: w}, out2, e, nil, x, src, x, dst)
		bitsEqual(t, "GatherConcat3 ignn shape", ref2, out2)
	}
}

func TestFusedKernelsZeroAllocsWarm(t *testing.T) {
	r := rng.New(15)
	m := RandN(r, 8, 8, 1)
	e := RandN(r, 6, 4, 1)
	idx := []int{3, 0, 7, 7, 2, 5}
	outGC := New(6, 8+8+4)
	allocs := testing.AllocsPerRun(100, func() {
		GatherConcat3IntoCtx(kernels.Context{}, outGC, m, idx, m, idx, e, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm fused kernels allocated %.1f per run, want 0", allocs)
	}
}
