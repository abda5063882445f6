package sampling

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func benchGraph(n int) (*graph.Graph, *EdgeIndex) {
	r := rng.New(1)
	var src, dst []int
	for i := 1; i < n; i++ {
		src = append(src, i-1)
		dst = append(dst, i)
	}
	for k := 0; k < 3*n; k++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			src = append(src, a)
			dst = append(dst, b)
		}
	}
	g := graph.New(n, src, dst)
	g.Adjacency()
	return g, NewEdgeIndex(g)
}

func BenchmarkStandardShaDow256(b *testing.B) {
	g, eidx := benchGraph(2000)
	r := rng.New(2)
	batch := r.SampleWithoutReplacement(2000, 256)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		standardShaDow(g, eidx, batch, cfg, r.Uint64())
	}
}

func BenchmarkBulkMatrixShaDow256x4(b *testing.B) {
	g, eidx := benchGraph(2000)
	r := rng.New(2)
	var batches [][]int
	for j := 0; j < 4; j++ {
		batches = append(batches, r.SampleWithoutReplacement(2000, 256))
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bulkShaDow(g, eidx, batches, cfg, r.Uint64())
	}
}
