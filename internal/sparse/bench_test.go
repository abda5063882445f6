package sparse

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// benchCSR builds a deterministic n×n sparse matrix with roughly
// nnzPerRow nonzeros per row.
func benchCSR(n, nnzPerRow int, seed uint64) *CSR {
	r := rng.New(seed)
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(i, r.Intn(n), 1+r.Float64())
		}
	}
	return coo.ToCSR()
}

func benchDense(rows, cols int, seed uint64) *tensor.Dense {
	r := rng.New(seed)
	m := tensor.New(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = r.Float64()
	}
	return m
}

// BenchmarkSpGEMM measures the sparse×sparse product on a graph-like
// operand pair (the Qd·A expansion shape of bulk sampling).
func BenchmarkSpGEMM(b *testing.B) {
	a := benchCSR(2000, 8, 1)
	c := benchCSR(2000, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpGEMM(a, c)
	}
}

// BenchmarkSpMM measures the sparse×dense product (message aggregation).
func BenchmarkSpMM(b *testing.B) {
	a := benchCSR(2000, 8, 1)
	x := benchDense(2000, 32, 3)
	out := tensor.New(2000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpMMIntoCtx(kernels.Context{}, out, a, x)
	}
}

// BenchmarkGatherRowsCSR measures bulk selection-matrix row gather.
func BenchmarkGatherRowsCSR(b *testing.B) {
	a := benchCSR(2000, 8, 1)
	r := rng.New(4)
	idx := make([]int, 1024)
	for i := range idx {
		idx[i] = r.Intn(2000)
	}
	out := new(CSR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherRowsInto(out, a, idx)
	}
}

// BenchmarkSpMMAddInto measures the fused aggregation+residual kernel
// (one pass over res instead of SpMM followed by an elementwise add).
func BenchmarkSpMMAddInto(b *testing.B) {
	a := benchCSR(2000, 8, 1)
	x := benchDense(2000, 32, 3)
	res := benchDense(2000, 32, 4)
	out := tensor.New(2000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpMMAddIntoCtx(kernels.Context{}, out, a, x, res)
	}
}
