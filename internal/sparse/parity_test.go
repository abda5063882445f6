package sparse

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Worker-count parity for the sparse kernels: outputs must be bitwise
// identical at workers ∈ {1, 2, 4, 7} (the odd count catches uneven
// partition boundaries), and the fused SpMMAdd must match the unfused
// SpMM + elementwise add chain exactly.

var parityWorkers = []int{1, 2, 4, 7}

func denseBitsEqual(t *testing.T, name string, want, got *tensor.Dense) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape mismatch", name)
	}
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, wd[i], gd[i])
		}
	}
}

func TestSpGEMMWorkerCountParity(t *testing.T) {
	r := rng.New(21)
	a := randomCSR(r, 67, 53, 0.15)
	b := randomCSR(r, 53, 41, 0.15)
	ref := SpGEMMIntoCtx(kernels.Context{Workers: 1}, new(CSR), a, b)
	for _, w := range parityWorkers[1:] {
		got := SpGEMMIntoCtx(kernels.Context{Workers: w}, new(CSR), a, b)
		if !ref.Equal(got) {
			t.Fatalf("SpGEMM at %d workers differs from 1 worker", w)
		}
	}
}

func TestSpMMWorkerCountParity(t *testing.T) {
	r := rng.New(22)
	a := randomCSR(r, 67, 53, 0.2)
	x := tensor.RandN(r, 53, 9, 1)
	ref := SpMMIntoCtx(kernels.Context{Workers: 1}, tensor.New(67, 9), a, x)
	for _, w := range parityWorkers[1:] {
		got := SpMMIntoCtx(kernels.Context{Workers: w}, tensor.New(67, 9), a, x)
		denseBitsEqual(t, "SpMM", ref, got)
	}
}

func TestSpMMAddMatchesSerialReferenceAtEveryWorkerCount(t *testing.T) {
	r := rng.New(23)
	a := randomCSR(r, 45, 31, 0.2)
	x := tensor.RandN(r, 31, 7, 1)
	res := tensor.RandN(r, 45, 7, 1)

	// Independent serial reference with the kernel's documented
	// accumulation order: each row starts from the residual, then adds
	// products in CSR column order.
	ref := res.Clone()
	for i := 0; i < a.RowsN; i++ {
		cols, vals := a.Row(i)
		rRow := ref.Row(i)
		for k, c := range cols {
			xRow := x.Row(c)
			for j := range rRow {
				rRow[j] += vals[k] * xRow[j]
			}
		}
	}

	for _, w := range parityWorkers {
		got := SpMMAddIntoCtx(kernels.Context{Workers: w}, tensor.New(45, 7), a, x, res)
		denseBitsEqual(t, "SpMMAdd", ref, got)
	}

	// In-place accumulate: out aliasing res is the autograd backward's
	// fused gradient accumulation.
	for _, w := range parityWorkers {
		acc := res.Clone()
		SpMMAddIntoCtx(kernels.Context{Workers: w}, acc, a, x, acc)
		denseBitsEqual(t, "SpMMAdd in place", ref, acc)
	}
}

// TestSpMMAddGatherMatchesUnfusedChain pins the exact case the autograd
// backward fuses: a one-nonzero-per-row gather matrix, where
// res + S×og is bitwise equal to the unfused gather-then-AddInPlace
// chain (each output element is a single addition with identical
// operands in both formulations).
func TestSpMMAddGatherMatchesUnfusedChain(t *testing.T) {
	r := rng.New(26)
	const m, n, h = 57, 19, 5
	idx := make([]int, m)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	og := tensor.RandN(r, n, h, 1)
	res := tensor.RandN(r, m, h, 1)

	gathered := tensor.New(m, h)
	tensor.GatherRowsIntoCtx(kernels.Context{}, gathered, og, idx)
	ref := res.Clone()
	ref.AddInPlace(gathered)

	gather := &CSR{RowsN: m, ColsN: n, RowPtr: make([]int, m+1), ColIdx: idx, Vals: make([]float64, m)}
	for i := range gather.RowPtr {
		gather.RowPtr[i] = i
	}
	for i := range gather.Vals {
		gather.Vals[i] = 1
	}
	for _, w := range parityWorkers {
		acc := res.Clone()
		SpMMAddIntoCtx(kernels.Context{Workers: w}, acc, gather, og, acc)
		denseBitsEqual(t, "SpMMAdd gather vs unfused", ref, acc)
	}
}

func TestSpMMAddIntoZeroAllocsWarm(t *testing.T) {
	r := rng.New(24)
	a := randomCSR(r, 16, 16, 0.4)
	x := tensor.RandN(r, 16, 4, 1)
	res := tensor.RandN(r, 16, 4, 1)
	out := tensor.New(16, 4)
	SpMMAddInto(out, a, x, res)
	allocs := testing.AllocsPerRun(100, func() {
		SpMMAddInto(out, a, x, res)
	})
	if allocs != 0 {
		t.Fatalf("warm SpMMAddInto allocated %.1f per run, want 0", allocs)
	}
}

func TestIncidenceIntoBuildsScatterMatrix(t *testing.T) {
	idx := []int{3, 0, 3, 2, 0, 3, 1}
	s := IncidenceInto(new(CSR), 5, idx)
	s.checkValid()
	d := s.ToDense()
	if d.Rows() != 5 || d.Cols() != len(idx) {
		t.Fatalf("incidence shape %dx%d", d.Rows(), d.Cols())
	}
	for v := 0; v < 5; v++ {
		for e := range idx {
			want := 0.0
			if idx[e] == v {
				want = 1
			}
			if d.At(v, e) != want {
				t.Fatalf("S[%d,%d] = %v, want %v", v, e, d.At(v, e), want)
			}
		}
	}
}

// TestIncidenceSpMMMatchesScatterAdd proves the aggregation identity
// the Interaction GNN's AGG step now relies on: S×X is bitwise equal to
// the serial ScatterAddRows, at every worker count.
func TestIncidenceSpMMMatchesScatterAdd(t *testing.T) {
	r := rng.New(25)
	const m, n, h = 83, 29, 6
	idx := make([]int, m)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	x := tensor.RandN(r, m, h, 1)

	ref := tensor.New(n, h)
	tensor.ScatterAddRows(ref, x, idx)

	s := IncidenceInto(new(CSR), n, idx)
	for _, w := range parityWorkers {
		got := SpMMIntoCtx(kernels.Context{Workers: w}, tensor.New(n, h), s, x)
		denseBitsEqual(t, "incidence SpMM vs ScatterAddRows", ref, got)
	}
}
