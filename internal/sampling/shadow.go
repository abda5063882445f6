// Package sampling implements the ShaDow subgraph sampler (Zeng et al.,
// "Decoupling the depth and scope of graph neural networks") in the two
// forms the paper compares:
//
//   - StandardShaDowStreams — Algorithm 2: a sequential per-batch-vertex
//     random walk with fanout s and depth d followed by induced-subgraph
//     extraction, standing in for PyG's sampler (the paper's baseline).
//   - BulkMatrixShaDowStreams — the paper's contribution (Figure 2): the
//     walk is expressed as sparse-matrix operations (Q·A row sampling with
//     a frontier matrix F), and multiple minibatches are sampled in a
//     single bulk invocation by stacking their Q matrices (equation 1),
//     which is what raises device utilization.
//
// Both draw from one random stream per batch vertex and return the same
// structure: a block-diagonal subgraph with one component per batch
// vertex, plus the mapping back to original vertex and edge ids so
// features and labels can be gathered. For the same streams the two are
// the same function.
package sampling

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// Config holds the ShaDow hyperparameters (paper: depth 3, fanout 6).
type Config struct {
	Depth  int // random-walk depth d
	Fanout int // neighbors sampled per frontier vertex s
}

// DefaultConfig returns the paper's ShaDow setting.
func DefaultConfig() Config { return Config{Depth: 3, Fanout: 6} }

// Subgraph is a sampled block-diagonal graph for one minibatch.
type Subgraph struct {
	// Vertices maps subgraph-local vertex id → original vertex id.
	Vertices []int
	// Src/Dst are subgraph-local edges, oriented as in the original graph.
	Src, Dst []int
	// EdgeIDs maps each subgraph edge → original edge index, for gathering
	// edge features and labels.
	EdgeIDs []int
	// Components is the number of disjoint components (= batch size).
	Components int
	// Roots are the subgraph-local ids of the batch vertices.
	Roots []int
}

// NumVertices returns the sampled vertex count.
func (s *Subgraph) NumVertices() int { return len(s.Vertices) }

// NumEdges returns the sampled edge count.
func (s *Subgraph) NumEdges() int { return len(s.Src) }

// EdgeIndex resolves original undirected edges (u, v) → edge id.
type EdgeIndex struct {
	m map[[2]int]int
}

// NewEdgeIndex builds the lookup for a graph's edge list.
func NewEdgeIndex(g *graph.Graph) *EdgeIndex {
	idx := &EdgeIndex{m: make(map[[2]int]int, len(g.Src))}
	for k := range g.Src {
		idx.m[normPair(g.Src[k], g.Dst[k])] = k
	}
	return idx
}

// Lookup returns the edge id of (u, v) in either orientation.
func (e *EdgeIndex) Lookup(u, v int) (int, bool) {
	id, ok := e.m[normPair(u, v)]
	return id, ok
}

func normPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// walkOneRoot performs the Algorithm 2 random walk from a single batch
// vertex and returns the visited vertex set (root first, then discovery
// order).
func walkOneRoot(adj *sparse.CSR, root int, cfg Config, r *rng.Rand) []int {
	visited := []int{root}
	seen := map[int]bool{root: true}
	frontier := []int{root}
	for depth := 0; depth < cfg.Depth; depth++ {
		var next []int
		for _, v := range frontier {
			cols, _ := adj.Row(v)
			var picks []int
			if len(cols) <= cfg.Fanout {
				picks = cols
			} else {
				sel := r.SampleWithoutReplacement(len(cols), cfg.Fanout)
				picks = make([]int, len(sel))
				for i, p := range sel {
					picks[i] = cols[p]
				}
			}
			for _, u := range picks {
				if !seen[u] {
					seen[u] = true
					visited = append(visited, u)
					next = append(next, u)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return visited
}

// assembleComponents builds the block-diagonal Subgraph from per-root
// visited vertex sets, extracting each induced subgraph from the original
// graph's edge list.
func assembleComponents(g *graph.Graph, eidx *EdgeIndex, visitedSets [][]int) *Subgraph {
	sub := &Subgraph{Components: len(visitedSets)}
	adj := g.Adjacency()
	for _, visited := range visitedSets {
		offset := len(sub.Vertices)
		sub.Roots = append(sub.Roots, offset) // root is first in its set
		local := make(map[int]int, len(visited))
		for i, v := range visited {
			local[v] = offset + i
		}
		sub.Vertices = append(sub.Vertices, visited...)
		// Induced edges: iterate pairs present in the original edge list.
		// For each visited vertex, scan its adjacency and keep edges whose
		// other endpoint is also visited, emitting each undirected edge
		// once with its original orientation.
		for _, v := range visited {
			cols, _ := adj.Row(v)
			for _, w := range cols {
				if v >= w { // visit each unordered pair once (v < w)
					continue
				}
				lw, ok := local[w]
				if !ok {
					continue
				}
				lv := local[v]
				id, ok := eidx.Lookup(v, w)
				if !ok {
					continue // symmetric entry without a stored edge (should not happen)
				}
				// Preserve the original orientation for edge features.
				if g.Src[id] == v {
					sub.Src = append(sub.Src, lv)
					sub.Dst = append(sub.Dst, lw)
				} else {
					sub.Src = append(sub.Src, lw)
					sub.Dst = append(sub.Dst, lv)
				}
				sub.EdgeIDs = append(sub.EdgeIDs, id)
			}
		}
	}
	return sub
}

// StandardShaDowStreams implements Algorithm 2: sample each batch
// vertex's subgraph sequentially and append the components. This is the
// baseline ("PyG") implementation the paper measures against. Root i's
// walk draws only from streams[i], so with the same streams it produces
// exactly the components BulkMatrixShaDowStreams samples for the same
// roots, independent of batch composition — the property the distributed
// trainer's determinism is built on.
func StandardShaDowStreams(g *graph.Graph, eidx *EdgeIndex, batch []int, cfg Config, streams []*rng.Rand) *Subgraph {
	validate(g, batch, cfg)
	if len(streams) != len(batch) {
		panic("sampling: StandardShaDowStreams wants one stream per batch vertex")
	}
	adj := g.Adjacency()
	visitedSets := make([][]int, len(batch))
	for i, root := range batch {
		visitedSets[i] = walkOneRoot(adj, root, cfg, streams[i])
	}
	return assembleComponents(g, eidx, visitedSets)
}

func validate(g *graph.Graph, batch []int, cfg Config) {
	if cfg.Depth < 1 || cfg.Fanout < 1 {
		panic(fmt.Sprintf("sampling: invalid ShaDow config %+v", cfg))
	}
	for _, b := range batch {
		if b < 0 || b >= g.N {
			panic(fmt.Sprintf("sampling: batch vertex %d outside graph of %d", b, g.N))
		}
	}
}
