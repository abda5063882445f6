package sparse

import (
	"testing"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// benchCSR builds a deterministic n×n sparse matrix with roughly
// nnzPerRow nonzeros per row.
func benchCSR(n, nnzPerRow int, seed uint64) *CSR {
	r := rng.New(seed)
	es := make([]entry, 0, n*nnzPerRow)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			es = append(es, entry{i, r.Intn(n), 1 + r.Float64()})
		}
	}
	return csrOf(n, n, es)
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

// BenchmarkSpMM measures the sparse×dense product at the GNN's
// incidence-aggregation shape: a V×E incidence matrix (V 1290 nodes,
// E 2260 edges, one nonzero per column) times E×32 edge messages, on
// one worker, at float64 and float32.
func BenchmarkSpMM(b *testing.B) {
	const v, e, h = 1290, 2260, 32
	r := rng.New(5)
	idx := make([]int, e)
	for i := range idx {
		idx[i] = r.Intn(v)
	}
	x := benchDense(e, h, 3)
	b.Run("f64", func(b *testing.B) { benchSpMM(b, idx, v, x) })
	b.Run("f32", func(b *testing.B) { benchSpMM(b, idx, v, tensor.ConvertFrom[float32](nil, x)) })
}

func benchSpMM[T fp.Float](b *testing.B, idx []int, v int, x *tensor.Matrix[T]) {
	a := IncidenceInto(new(CSROf[T]), v, idx)
	out := tensor.NewOf[T](v, x.Cols())
	kc := kernels.Context{Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpMMIntoCtx(kc, out, a, x)
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
