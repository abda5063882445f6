// Command bulksampling demonstrates the matrix-based bulk ShaDow sampler
// (Figure 2 of the paper): it shows that the matrix formulation and the
// standard Algorithm 2 sampler, given the same per-root random streams,
// produce byte-identical subgraphs, that the SpGEMM extraction step
// matches the edge-list assembly, and how bulk sampling throughput scales
// with the number of stacked minibatches.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/detector"
	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/recon"
)

func main() {
	// Build one event graph to sample from, using the recon truth-level
	// builder (ground-truth edges plus 1.5 random fakes per true edge).
	spec := detector.Ex3Like(0.15) // ~200 particles → ~2000 hits
	spec.NumEvents = 1
	ds := detector.Generate(spec, 3)
	rec, err := recon.New(spec, recon.WithTruthLevelGraphs(1.5), recon.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}
	eg, err := rec.BuildGraph(context.Background(), ds.Events[0])
	if err != nil {
		log.Fatal(err)
	}
	eidx := sampling.NewEdgeIndex(eg.G)
	fmt.Printf("event graph: %d vertices, %d edges\n\n", eg.NumVertices(), eg.NumEdges())

	cfg := sampling.DefaultConfig() // depth 3, fanout 6 (paper setting)
	r := rng.New(1)
	batch := r.SampleWithoutReplacement(eg.NumVertices(), 256)

	// Standard (Algorithm 2) vs matrix (Figure 2) samplers, each handed a
	// copy of the same per-root streams.
	streams := rootStreams(r, len(batch))
	std := sampling.StandardShaDowStreams(eg.G, eidx, batch, cfg, copyStreams(streams))
	mtx := sampling.BulkMatrixShaDowStreams(eg.G, eidx, [][]int{batch}, cfg, [][]*rng.Rand{copyStreams(streams)})[0]
	fmt.Println("=== sampler comparison (batch of 256 roots) ===")
	fmt.Printf("standard: %4d vertices %5d edges %d components\n",
		std.NumVertices(), std.NumEdges(), std.Components)
	fmt.Printf("matrix:   %4d vertices %5d edges %d components\n",
		mtx.NumVertices(), mtx.NumEdges(), mtx.Components)
	same := sameSubgraph(std, mtx)
	fmt.Printf("byte-equal: %v\n", same)
	if !same {
		log.Fatal("the matrix and Algorithm 2 samplers disagree on the same streams")
	}

	// The paper's extraction: row/column-selection SpGEMMs vs edge lists.
	var sets [][]int
	for i := 0; i < len(mtx.Roots); i++ {
		end := mtx.NumVertices()
		if i+1 < len(mtx.Roots) {
			end = mtx.Roots[i+1]
		}
		sets = append(sets, mtx.Vertices[mtx.Roots[i]:end])
	}
	viaSpGEMM := sampling.ExtractComponentsSpGEMM(eg.G, sets)
	viaEdges := sampling.SubgraphAdjacency(mtx)
	fmt.Printf("\nSpGEMM extraction == edge-list assembly: %v (A_S is %dx%d, %d nnz)\n",
		viaSpGEMM.Equal(viaEdges), viaSpGEMM.Rows(), viaSpGEMM.Cols(), viaSpGEMM.Nnz())

	// Bulk throughput: sampling k batches per invocation.
	fmt.Println("\n=== bulk sampling throughput ===")
	for _, k := range []int{1, 2, 4, 8} {
		batches := make([][]int, k)
		for i := range batches {
			batches[i] = r.SampleWithoutReplacement(eg.NumVertices(), 256)
		}
		start := time.Now()
		const reps = 3
		for rep := 0; rep < reps; rep++ {
			streams := make([][]*rng.Rand, k)
			for i, b := range batches {
				streams[i] = rootStreams(r, len(b))
			}
			sampling.BulkMatrixShaDowStreams(eg.G, eidx, batches, cfg, streams)
		}
		perBatch := time.Since(start) / time.Duration(reps*k)
		fmt.Printf("  k=%d: %v per minibatch\n", k, perBatch.Round(time.Microsecond))
	}
}

// rootStreams splits one random stream per batch vertex off r.
func rootStreams(r *rng.Rand, n int) []*rng.Rand {
	out := make([]*rng.Rand, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// copyStreams returns generators in the same states as streams, so two
// samplers can draw the same sequences.
func copyStreams(streams []*rng.Rand) []*rng.Rand {
	out := make([]*rng.Rand, len(streams))
	for i, s := range streams {
		c := *s
		out[i] = &c
	}
	return out
}

// sameSubgraph reports whether a and b hold the same vertices, edges,
// edge ids and roots in the same order.
func sameSubgraph(a, b *sampling.Subgraph) bool {
	return a.Components == b.Components &&
		slices.Equal(a.Vertices, b.Vertices) && slices.Equal(a.Roots, b.Roots) &&
		slices.Equal(a.Src, b.Src) && slices.Equal(a.Dst, b.Dst) && slices.Equal(a.EdgeIDs, b.EdgeIDs)
}
