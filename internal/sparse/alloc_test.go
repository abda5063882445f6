package sparse

import (
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Warm-path allocation budgets. Sizes stay below the parallel grain so
// the kernels run inline (no goroutine fan-out) and the measured allocs
// are the kernels' own. With warmed workspace pools and reused outputs,
// the sparse kernels must not touch the heap at all.

func TestSpMMIntoZeroAllocsWarm(t *testing.T) {
	r := rng.New(2)
	a := randomCSR(r, 16, 16, 0.4)
	x := tensor.RandN(r, 16, 4, 1)
	out := tensor.New(16, 4)
	SpMMIntoCtx(kernels.Context{}, out, a, x)
	allocs := testing.AllocsPerRun(100, func() {
		SpMMIntoCtx(kernels.Context{}, out, a, x)
	})
	if allocs != 0 {
		t.Fatalf("warm SpMMIntoCtx allocated %.1f per run, want 0", allocs)
	}
}

func TestGatherRowsIntoZeroAllocsWarm(t *testing.T) {
	r := rng.New(3)
	a := randomCSR(r, 30, 30, 0.3)
	idx := []int{4, 2, 29, 2, 17, 0}
	out := new(CSR)
	GatherRowsInto(out, a, idx)
	allocs := testing.AllocsPerRun(100, func() {
		GatherRowsInto(out, a, idx)
	})
	if allocs != 0 {
		t.Fatalf("warm GatherRowsInto allocated %.1f per run, want 0", allocs)
	}
}

// TestValueKernelAllocs bounds the value-returning sparse kernels at
// event-graph shapes: FromEdges allocates its CSR (header, row pointers,
// column indices and values) and one row-cursor scratch, whatever the
// edge count.
func TestValueKernelAllocs(t *testing.T) {
	r := rng.New(1)
	src, dst := make([]int, 8000), make([]int, 8000)
	for k := range src {
		src[k], dst[k] = r.Intn(2000), r.Intn(2000)
	}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"FromEdges", 5, func() { FromEdges(2000, src, dst, true) }},
	} {
		if allocs := testing.AllocsPerRun(10, tc.run); allocs > tc.max {
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

// TestSpMMF32Bytes: SpMM and SpMMAdd at float32 write a result half the
// width of the float64 one, so a call with its output must allocate at
// most 75% of the bytes.
func TestSpMMF32Bytes(t *testing.T) {
	a64, x64, res64 := benchCSR(2000, 8, 1), benchDense(2000, 32, 3), benchDense(2000, 32, 4)
	a32 := convertCSR[float32](a64)
	x32, res32 := tensor.ConvertFrom[float32](nil, x64), tensor.ConvertFrom[float32](nil, res64)
	kc := kernels.Context{}
	for _, tc := range []struct {
		name     string
		f64, f32 func()
	}{
		{"SpMM",
			func() { SpMMIntoCtx(kc, tensor.New(2000, 32), a64, x64) },
			func() { SpMMIntoCtx(kc, tensor.NewOf[float32](2000, 32), a32, x32) }},
		{"SpMMAdd",
			func() { SpMMAddIntoCtx(kc, tensor.New(2000, 32), a64, x64, res64) },
			func() { SpMMAddIntoCtx(kc, tensor.NewOf[float32](2000, 32), a32, x32, res32) }},
	} {
		b64, b32 := bytesPerRun(10, tc.f64), bytesPerRun(10, tc.f32)
		if b32 > 0.75*b64 {
			t.Errorf("%s allocated %.0f B at f32 against %.0f B at f64, want ≤ 75%%", tc.name, b32, b64)
		}
	}
}

// Parity: the pooled/in-place variants must be bit-identical to the
// allocating references, and the reference SpGEMM must match the dense
// oracle.

func TestSpGEMMMatchesDenseOracleRandomized(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		m, k, n := r.Intn(20)+1, r.Intn(20)+1, r.Intn(20)+1
		a := randomCSR(r, m, k, 0.35)
		b := randomCSR(r, k, n, 0.35)
		got := SpGEMM(a, b).ToDense()
		want := tensor.MatMul(a.ToDense(), b.ToDense())
		if got.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("trial %d: SpGEMM deviates from dense oracle by %v", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestSpMMIntoMatchesSpMMReference(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 30; trial++ {
		m, k, n := r.Intn(25)+1, r.Intn(25)+1, r.Intn(6)+1
		a := randomCSR(r, m, k, 0.3)
		x := tensor.RandN(r, k, n, 1)
		// Reference: each output row accumulates from zero in CSR
		// column order, the kernel's contract written flat.
		ref := tensor.New(m, n)
		for i := 0; i < m; i++ {
			cols, vals := a.Row(i)
			for p, c := range cols {
				for j := 0; j < n; j++ {
					ref.Set(i, j, ref.At(i, j)+vals[p]*x.At(c, j))
				}
			}
		}
		out := tensor.New(m, n)
		out.Fill(999) // ensure Into fully overwrites
		SpMMIntoCtx(kernels.Context{}, out, a, x)
		if ref.MaxAbsDiff(out) != 0 {
			t.Fatalf("trial %d: SpMMIntoCtx not bit-identical to the flat reference", trial)
		}
	}
}

func TestGatherRowsIntoMatchesReference(t *testing.T) {
	r := rng.New(7)
	out := new(CSR)
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(30) + 2
		a := randomCSR(r, n, n, 0.3)
		idx := make([]int, r.Intn(2*n)+1)
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		ref := SpGEMM(RowSelection(idx, n), a)
		GatherRowsInto(out, a, idx)
		if !ref.Equal(out) {
			t.Fatalf("trial %d: GatherRowsInto into a reused matrix differs from the selection SpGEMM", trial)
		}
	}
}

func TestCSRReleaseRecycles(t *testing.T) {
	r := rng.New(8)
	a := randomCSR(r, 10, 10, 0.4)
	idx := []int{3, 9, 0, 3, 5}
	out := new(CSR)
	GatherRowsInto(out, a, idx)
	want := SpGEMM(RowSelection(idx, 10), a)
	if !want.Equal(out) {
		t.Fatal("precondition failed")
	}
	out.Release()
	if out.Nnz() != 0 || out.RowsN != 0 {
		t.Fatal("Release left state behind")
	}
	// The released storage must be safely reusable.
	GatherRowsInto(out, a, idx)
	if !want.Equal(out) {
		t.Fatal("CSR reuse after Release corrupted result")
	}
}
