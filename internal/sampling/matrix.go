package sampling

import (
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// BulkMatrixShaDowStreams samples k minibatches in one bulk invocation
// using the matrix formulation of Figure 2:
//
//  1. Q_d is the (Σ batch sizes)×n row-selection matrix of all batch
//     vertices across all k batches, stacked per equation (1).
//  2. Repeat d times: P ← Q_l·A (one SpGEMM for every walker of every
//     batch simultaneously); divide each row by its sum to get a uniform
//     distribution and sample s nonzeros (SampleRowsStreams); expand
//     Q_{l-1} to one nonzero per newly visited vertex; accumulate the
//     visited vertices of each batch vertex in the frontier matrix F.
//  3. Extract the induced subgraph per batch vertex from its F row and
//     assemble one block-diagonal subgraph per batch.
//
// Sampling all k batches in one call is the utilization optimization the
// paper introduces: the SpGEMM and row-sampling kernels run over matrices
// k× taller, amortizing per-invocation overhead exactly as bulk sampling
// amortizes kernel launches on a GPU.
//
// streams holds one random stream per batch vertex (parallel to
// batches). Every row-sampling draw for a batch vertex's walkers comes
// from that vertex's own stream, so the subgraph sampled for a given
// (vertex, stream) pair is byte-identical no matter how many batches are
// stacked into the bulk call or how the batch is sharded across ranks —
// the reproducibility contract the distributed trainer's cross-rank
// parity rests on. It equals StandardShaDowStreams component-by-component
// for the same streams.
func BulkMatrixShaDowStreams(g *graph.Graph, eidx *EdgeIndex, batches [][]int, cfg Config, streams [][]*rng.Rand) []*Subgraph {
	// Global root list, and its streams, across all batches.
	var roots []int
	var rootStreams []*rng.Rand
	for bi, batch := range batches {
		if bi >= len(streams) || len(streams[bi]) != len(batch) {
			panic("sampling: BulkMatrixShaDowStreams wants one stream per batch vertex")
		}
		validate(g, batch, cfg)
		roots = append(roots, batch...)
		rootStreams = append(rootStreams, streams[bi]...)
	}
	adj := g.Adjacency()
	nRoots := len(roots)

	// Visited bookkeeping per root: ordered list (root first) + set.
	visitedList := make([][]int, nRoots)
	visitedSet := make([]map[int]bool, nRoots)
	for i, v := range roots {
		visitedList[i] = []int{v}
		visitedSet[i] = map[int]bool{v: true}
	}

	// Cursor state: one row per active walker. Row j of Q selects
	// cursorVertex[j]; rootOf[j] says which batch vertex owns the walker.
	cursorVertex := append([]int(nil), roots...)
	rootOf := make([]int, nRoots)
	for i := range rootOf {
		rootOf[i] = i
	}

	// One Q·A product matrix is reused across all walk depths (and, via
	// the workspace pools, across bulk invocations): each depth's stacked
	// expansion overwrites the same storage instead of allocating anew.
	qa := new(sparse.CSR)
	defer qa.Release()
	for depth := 0; depth < cfg.Depth && len(cursorVertex) > 0; depth++ {
		// Stacked neighborhood expansion: Q_l·A for all walkers of all k
		// batches at once. Q_l is a row-selection matrix (one unit nonzero
		// per row), so the product reduces to a bulk CSR row gather — the
		// same specialization a GPU SpGEMM exploits for selection matrices.
		p := sparse.GatherRowsInto(qa, adj, cursorVertex)
		rowRand := make([]*rng.Rand, len(rootOf))
		for row, root := range rootOf {
			rowRand[row] = rootStreams[root]
		}
		sampled := sparse.SampleRowsStreams(p, cfg.Fanout, rowRand)

		var nextVertex []int
		var nextRoot []int
		for row, picks := range sampled.Samples {
			root := rootOf[row]
			for _, u := range picks {
				if !visitedSet[root][u] {
					visitedSet[root][u] = true
					visitedList[root] = append(visitedList[root], u)
					nextVertex = append(nextVertex, u)
					nextRoot = append(nextRoot, root)
				}
			}
		}
		cursorVertex, rootOf = nextVertex, nextRoot
	}

	// Per-batch assembly: slice this bulk run's roots back into batches.
	out := make([]*Subgraph, len(batches))
	cursor := 0
	for bi, batch := range batches {
		sets := make([][]int, len(batch))
		for i := range batch {
			sets[i] = visitedList[cursor]
			cursor++
		}
		out[bi] = assembleComponents(g, eidx, sets)
	}
	return out
}

// ExtractComponentsSpGEMM reproduces the paper's extraction step
// literally: for each component's vertex set, build the induced adjacency
// with row- and column-selection SpGEMMs and assemble the block-diagonal
// sampled matrix A_S. It is used by tests and examples to demonstrate
// equivalence with the edge-list assembly the trainers use.
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
