package sampling

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

// testGraph builds a random connected-ish graph.
func testGraph(r *rng.Rand, n, extraEdges int) *graph.Graph {
	var src, dst []int
	for i := 1; i < n; i++ { // spanning path keeps it connected
		src = append(src, i-1)
		dst = append(dst, i)
	}
	for k := 0; k < extraEdges; k++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			src = append(src, a)
			dst = append(dst, b)
		}
	}
	return graph.New(n, src, dst)
}

// standardShaDow runs StandardShaDowStreams with one stream per root
// derived from seed.
func standardShaDow(g *graph.Graph, eidx *EdgeIndex, batch []int, cfg Config, seed uint64) *Subgraph {
	return StandardShaDowStreams(g, eidx, batch, cfg, makeStreams(seed, batch))
}

// bulkShaDow runs BulkMatrixShaDowStreams with one stream per root,
// batch b's streams derived from seed+b.
func bulkShaDow(g *graph.Graph, eidx *EdgeIndex, batches [][]int, cfg Config, seed uint64) []*Subgraph {
	streams := make([][]*rng.Rand, len(batches))
	for b, batch := range batches {
		streams[b] = makeStreams(seed+uint64(b), batch)
	}
	return BulkMatrixShaDowStreams(g, eidx, batches, cfg, streams)
}

// checkSubgraphInvariants verifies the structural properties every ShaDow
// sampler must satisfy.
func checkSubgraphInvariants(t *testing.T, g *graph.Graph, eidx *EdgeIndex, batch []int, cfg Config, sub *Subgraph) {
	t.Helper()
	if sub.Components != len(batch) {
		t.Fatalf("components %d != batch size %d", sub.Components, len(batch))
	}
	if len(sub.Roots) != len(batch) {
		t.Fatalf("roots %d != batch size %d", len(sub.Roots), len(batch))
	}
	for i, root := range sub.Roots {
		if sub.Vertices[root] != batch[i] {
			t.Fatalf("root %d maps to vertex %d, want %d", i, sub.Vertices[root], batch[i])
		}
	}
	// Edges: local endpoints valid, original ids consistent, orientation
	// preserved.
	for k := range sub.Src {
		ls, ld := sub.Src[k], sub.Dst[k]
		if ls < 0 || ls >= sub.NumVertices() || ld < 0 || ld >= sub.NumVertices() {
			t.Fatalf("edge %d endpoints (%d,%d) out of range", k, ls, ld)
		}
		os, od := sub.Vertices[ls], sub.Vertices[ld]
		id := sub.EdgeIDs[k]
		if g.Src[id] != os || g.Dst[id] != od {
			t.Fatalf("edge %d maps to original (%d,%d) but edge id %d is (%d,%d)",
				k, os, od, id, g.Src[id], g.Dst[id])
		}
	}
	// Components must be disjoint in local vertex ranges: vertex v's
	// component is determined by the roots offsets; check block structure
	// via connected components of the subgraph — every component of the
	// sampled graph must stay within one root's block.
	blockOf := make([]int, sub.NumVertices())
	for i := 0; i < len(sub.Roots); i++ {
		end := sub.NumVertices()
		if i+1 < len(sub.Roots) {
			end = sub.Roots[i+1]
		}
		for v := sub.Roots[i]; v < end; v++ {
			blockOf[v] = i
		}
	}
	for k := range sub.Src {
		if blockOf[sub.Src[k]] != blockOf[sub.Dst[k]] {
			t.Fatalf("edge %d crosses components", k)
		}
	}
	// Fanout/depth bound: a component can visit at most
	// 1 + s + s² + ... + s^d vertices.
	maxVisit := 1
	pow := 1
	for i := 0; i < cfg.Depth; i++ {
		pow *= cfg.Fanout
		maxVisit += pow
	}
	for i := 0; i < len(sub.Roots); i++ {
		end := sub.NumVertices()
		if i+1 < len(sub.Roots) {
			end = sub.Roots[i+1]
		}
		if size := end - sub.Roots[i]; size > maxVisit {
			t.Fatalf("component %d has %d vertices > bound %d", i, size, maxVisit)
		}
	}
}

func TestStandardShaDowInvariants(t *testing.T) {
	r := rng.New(1)
	g := testGraph(r, 60, 80)
	eidx := NewEdgeIndex(g)
	cfg := Config{Depth: 2, Fanout: 3}
	batch := []int{0, 10, 20, 30}
	sub := standardShaDow(g, eidx, batch, cfg, r.Uint64())
	checkSubgraphInvariants(t, g, eidx, batch, cfg, sub)
}

func TestMatrixShaDowInvariants(t *testing.T) {
	r := rng.New(2)
	g := testGraph(r, 60, 80)
	eidx := NewEdgeIndex(g)
	cfg := Config{Depth: 2, Fanout: 3}
	batch := []int{5, 15, 25, 35}
	sub := bulkShaDow(g, eidx, [][]int{batch}, cfg, r.Uint64())[0]
	checkSubgraphInvariants(t, g, eidx, batch, cfg, sub)
}

func TestBulkMatrixShaDowInvariants(t *testing.T) {
	r := rng.New(3)
	g := testGraph(r, 80, 100)
	eidx := NewEdgeIndex(g)
	cfg := Config{Depth: 3, Fanout: 2}
	batches := [][]int{{0, 1, 2}, {10, 20}, {30, 40, 50, 60}}
	subs := bulkShaDow(g, eidx, batches, cfg, r.Uint64())
	if len(subs) != len(batches) {
		t.Fatalf("got %d subgraphs for %d batches", len(subs), len(batches))
	}
	for i, sub := range subs {
		checkSubgraphInvariants(t, g, eidx, batches[i], cfg, sub)
	}
}

func TestShaDowQuickInvariants(t *testing.T) {
	check := func(seed uint64, nRaw, batchRaw, depthRaw, fanoutRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%50) + 5
		g := testGraph(r, n, n)
		eidx := NewEdgeIndex(g)
		cfg := Config{Depth: int(depthRaw%3) + 1, Fanout: int(fanoutRaw%4) + 1}
		batchSize := int(batchRaw%5) + 1
		batch := r.SampleWithoutReplacement(n, batchSize)
		for _, impl := range []func() *Subgraph{
			func() *Subgraph { return standardShaDow(g, eidx, batch, cfg, r.Uint64()) },
			func() *Subgraph { return bulkShaDow(g, eidx, [][]int{batch}, cfg, r.Uint64())[0] },
		} {
			sub := impl()
			if sub.Components != len(batch) {
				return false
			}
			for k := range sub.Src {
				id := sub.EdgeIDs[k]
				if g.Src[id] != sub.Vertices[sub.Src[k]] || g.Dst[id] != sub.Vertices[sub.Dst[k]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphIsComplete(t *testing.T) {
	// Every original edge between two visited vertices of a component must
	// appear in the sampled subgraph (induced means induced).
	r := rng.New(4)
	g := testGraph(r, 40, 60)
	eidx := NewEdgeIndex(g)
	cfg := Config{Depth: 2, Fanout: 4}
	sub := standardShaDow(g, eidx, []int{7}, cfg, r.Uint64())
	// Single component: collect visited set.
	inSub := make(map[int]int)
	for local, orig := range sub.Vertices {
		inSub[orig] = local
	}
	present := make(map[[2]int]bool)
	for k := range sub.Src {
		a, b := sub.Vertices[sub.Src[k]], sub.Vertices[sub.Dst[k]]
		present[normPair(a, b)] = true
	}
	for k := range g.Src {
		_, okA := inSub[g.Src[k]]
		_, okB := inSub[g.Dst[k]]
		if okA && okB && g.Src[k] != g.Dst[k] {
			if !present[normPair(g.Src[k], g.Dst[k])] {
				t.Fatalf("induced edge (%d,%d) missing from subgraph", g.Src[k], g.Dst[k])
			}
		}
	}
}

func TestExtractComponentsSpGEMMMatchesAdjacency(t *testing.T) {
	// The paper's SpGEMM extraction and the edge-list assembly must agree
	// on the block-diagonal sampled adjacency.
	r := rng.New(5)
	g := testGraph(r, 50, 70)
	eidx := NewEdgeIndex(g)
	cfg := Config{Depth: 2, Fanout: 3}
	batch := []int{3, 30}
	sub := standardShaDow(g, eidx, batch, cfg, r.Uint64())
	// Rebuild visited sets from the component layout.
	var sets [][]int
	for i := 0; i < len(sub.Roots); i++ {
		end := sub.NumVertices()
		if i+1 < len(sub.Roots) {
			end = sub.Roots[i+1]
		}
		sets = append(sets, sub.Vertices[sub.Roots[i]:end])
	}
	viaSpGEMM := ExtractComponentsSpGEMM(g, sets)
	viaEdges := SubgraphAdjacency(sub)
	if viaSpGEMM.Rows() != viaEdges.Rows() {
		t.Fatalf("sizes differ: %d vs %d", viaSpGEMM.Rows(), viaEdges.Rows())
	}
	if viaSpGEMM.ToDense().MaxAbsDiff(viaEdges.ToDense()) != 0 {
		t.Fatal("SpGEMM extraction disagrees with edge-list assembly")
	}
}

func TestFanoutLimitsFrontier(t *testing.T) {
	// On a star graph with fanout 1 and depth 1, the component is exactly
	// the root plus one neighbor.
	n := 20
	var src, dst []int
	for i := 1; i < n; i++ {
		src = append(src, 0)
		dst = append(dst, i)
	}
	g := graph.New(n, src, dst)
	eidx := NewEdgeIndex(g)
	sub := standardShaDow(g, eidx, []int{0}, Config{Depth: 1, Fanout: 1}, 6)
	if sub.NumVertices() != 2 {
		t.Fatalf("star root with fanout 1 visited %d vertices, want 2", sub.NumVertices())
	}
	subM := bulkShaDow(g, eidx, [][]int{{0}}, Config{Depth: 1, Fanout: 1}, 6)[0]
	if subM.NumVertices() != 2 {
		t.Fatalf("matrix version visited %d vertices, want 2", subM.NumVertices())
	}
}

func TestLowDegreeKeepsAllNeighbors(t *testing.T) {
	// Path graph with fanout ≥ degree: depth-1 walk from an interior
	// vertex must take both neighbors.
	g := graph.New(5, []int{0, 1, 2, 3}, []int{1, 2, 3, 4})
	eidx := NewEdgeIndex(g)
	cfg := Config{Depth: 1, Fanout: 6}
	for _, impl := range []func() *Subgraph{
		func() *Subgraph { return standardShaDow(g, eidx, []int{2}, cfg, 7) },
		func() *Subgraph { return bulkShaDow(g, eidx, [][]int{{2}}, cfg, 7)[0] },
	} {
		sub := impl()
		if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
			t.Fatalf("interior walk got %d vertices %d edges, want 3/2", sub.NumVertices(), sub.NumEdges())
		}
	}
}

func TestValidationPanics(t *testing.T) {
	g := graph.New(3, []int{0}, []int{1})
	eidx := NewEdgeIndex(g)
	for _, f := range []func(){
		func() { standardShaDow(g, eidx, []int{5}, Config{Depth: 1, Fanout: 1}, 10) },
		func() { standardShaDow(g, eidx, []int{0}, Config{Depth: 0, Fanout: 1}, 10) },
		func() { bulkShaDow(g, eidx, [][]int{{5}}, Config{Depth: 1, Fanout: 1}, 10) },
		func() { bulkShaDow(g, eidx, [][]int{{0}}, Config{Depth: 1, Fanout: 0}, 10) },
		func() {
			StandardShaDowStreams(g, eidx, []int{0, 1}, Config{Depth: 1, Fanout: 1}, makeStreams(10, []int{0}))
		},
		func() {
			BulkMatrixShaDowStreams(g, eidx, [][]int{{0}, {1}}, Config{Depth: 1, Fanout: 1}, [][]*rng.Rand{makeStreams(10, []int{0})})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
