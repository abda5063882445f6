package sampling

import (
	"repro/internal/graph"
	"repro/internal/sparse"
)

// This file holds the paper's matrix formulation of subgraph extraction,
// the oracle tests hold the samplers' edge-list assembly to. No program
// calls it.

// ExtractComponentsSpGEMM reproduces the paper's extraction step
// literally: for each component's vertex set, build the induced adjacency
// with row- and column-selection SpGEMMs and assemble the block-diagonal
// sampled matrix A_S.
func ExtractComponentsSpGEMM(g *graph.Graph, visitedSets [][]int) *sparse.CSR {
	adj := g.Adjacency()
	blocks := make([]*sparse.CSR, len(visitedSets))
	for i, set := range visitedSets {
		blocks[i] = sparse.ExtractSubmatrix(adj, set)
	}
	return sparse.BlockDiag(blocks...)
}

// SubgraphAdjacency builds the block-diagonal adjacency matrix of a
// sampled Subgraph (symmetric, unit values) — the A_S of the paper.
func SubgraphAdjacency(s *Subgraph) *sparse.CSR {
	return sparse.FromEdges(s.NumVertices(), s.Src, s.Dst, true)
}
