package sampling

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// randomGraph builds a simple undirected graph: n vertices, ~m distinct
// edges, no self-loops, no duplicate pairs.
func randomGraph(r *rng.Rand, n, m int) *graph.Graph {
	seen := make(map[[2]int]bool)
	var src, dst []int
	for tries := 0; len(src) < m && tries < 4*m; tries++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		src = append(src, u)
		dst = append(dst, v)
	}
	return graph.New(n, src, dst)
}

// componentRanges returns the [lo, hi) local-vertex bounds of each
// component (components are laid out contiguously, roots first).
func componentRanges(s *Subgraph) [][2]int {
	ranges := make([][2]int, s.Components)
	for i, lo := range s.Roots {
		hi := s.NumVertices()
		if i+1 < len(s.Roots) {
			hi = s.Roots[i+1]
		}
		ranges[i] = [2]int{lo, hi}
	}
	return ranges
}

// checkInvariants verifies every structural property a ShaDow subgraph
// must satisfy with respect to its original graph and batch.
func checkInvariants(t *testing.T, g *graph.Graph, batch []int, cfg Config, s *Subgraph) {
	t.Helper()
	if s.Components != len(batch) {
		t.Fatalf("components = %d, batch size %d", s.Components, len(batch))
	}
	if len(s.Roots) != len(batch) {
		t.Fatalf("roots = %d, batch size %d", len(s.Roots), len(batch))
	}
	if len(s.Src) != len(s.Dst) || len(s.Src) != len(s.EdgeIDs) {
		t.Fatalf("edge arrays disagree: %d/%d/%d", len(s.Src), len(s.Dst), len(s.EdgeIDs))
	}
	ranges := componentRanges(s)

	// Size bound: a component holds at most sum_{i=0..d} fanout^i vertices.
	maxSize := 1
	pow := 1
	for i := 0; i < cfg.Depth; i++ {
		pow *= cfg.Fanout
		maxSize += pow
	}

	// componentOf[local] = component index.
	componentOf := make([]int, s.NumVertices())
	for ci, rg := range ranges {
		if rg[0] >= rg[1] {
			t.Fatalf("component %d empty [%d,%d)", ci, rg[0], rg[1])
		}
		if s.Vertices[rg[0]] != batch[ci] {
			t.Fatalf("component %d first vertex %d, want root %d", ci, s.Vertices[rg[0]], batch[ci])
		}
		if size := rg[1] - rg[0]; size > maxSize {
			t.Fatalf("component %d has %d vertices, fanout/depth bound is %d", ci, size, maxSize)
		}
		// Vertex ids valid and bijective into the original graph within
		// the component (no local vertex maps to the same original twice).
		inComp := make(map[int]bool, rg[1]-rg[0])
		for l := rg[0]; l < rg[1]; l++ {
			componentOf[l] = ci
			v := s.Vertices[l]
			if v < 0 || v >= g.N {
				t.Fatalf("component %d local %d maps to out-of-range vertex %d", ci, l, v)
			}
			if inComp[v] {
				t.Fatalf("component %d holds original vertex %d twice", ci, v)
			}
			inComp[v] = true
		}
	}

	// Edges: endpoints in the same component, ids valid and bijective
	// into the original edge list per component, orientation preserved.
	edgeSeen := make(map[[2]int]bool) // (component, edge id)
	adjComp := make([][]int, s.NumVertices())
	for k := range s.Src {
		ls, ld := s.Src[k], s.Dst[k]
		if ls < 0 || ls >= s.NumVertices() || ld < 0 || ld >= s.NumVertices() {
			t.Fatalf("edge %d local ids (%d,%d) out of range", k, ls, ld)
		}
		ci := componentOf[ls]
		if componentOf[ld] != ci {
			t.Fatalf("edge %d crosses components %d and %d — not block-diagonal", k, ci, componentOf[ld])
		}
		id := s.EdgeIDs[k]
		if id < 0 || id >= g.NumEdges() {
			t.Fatalf("edge %d has invalid original id %d", k, id)
		}
		if g.Src[id] != s.Vertices[ls] || g.Dst[id] != s.Vertices[ld] {
			t.Fatalf("edge %d (%d→%d) does not match original edge %d (%d→%d)",
				k, s.Vertices[ls], s.Vertices[ld], id, g.Src[id], g.Dst[id])
		}
		key := [2]int{ci, id}
		if edgeSeen[key] {
			t.Fatalf("component %d holds original edge %d twice", ci, id)
		}
		edgeSeen[key] = true
		adjComp[ls] = append(adjComp[ls], ld)
		adjComp[ld] = append(adjComp[ld], ls)
	}

	// Induced completeness: every original edge between two visited
	// vertices of a component must be present.
	for ci, rg := range ranges {
		local := make(map[int]int, rg[1]-rg[0])
		for l := rg[0]; l < rg[1]; l++ {
			local[s.Vertices[l]] = l
		}
		for id := 0; id < g.NumEdges(); id++ {
			lu, okU := local[g.Src[id]]
			lv, okV := local[g.Dst[id]]
			if okU && okV && !edgeSeen[[2]int{ci, id}] {
				t.Fatalf("component %d misses induced edge %d (%d–%d) between local %d and %d",
					ci, id, g.Src[id], g.Dst[id], lu, lv)
			}
		}
	}

	// Depth bound: every component vertex is within Depth hops of its
	// root inside the component.
	for ci, rg := range ranges {
		dist := make(map[int]int, rg[1]-rg[0])
		frontier := []int{rg[0]}
		dist[rg[0]] = 0
		for len(frontier) > 0 {
			var next []int
			for _, v := range frontier {
				for _, w := range adjComp[v] {
					if _, ok := dist[w]; !ok {
						dist[w] = dist[v] + 1
						next = append(next, w)
					}
				}
			}
			frontier = next
		}
		for l := rg[0]; l < rg[1]; l++ {
			d, ok := dist[l]
			if !ok {
				t.Fatalf("component %d vertex %d (orig %d) unreachable from root", ci, l, s.Vertices[l])
			}
			if d > cfg.Depth {
				t.Fatalf("component %d vertex %d at distance %d > depth %d", ci, l, d, cfg.Depth)
			}
		}
	}
}

func randomBatch(r *rng.Rand, n, size int) []int {
	perm := r.Perm(n)
	return perm[:size]
}

func TestStandardShaDowPropertyInvariants(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 30; trial++ {
		n := 10 + r.Intn(120)
		g := randomGraph(r, n, 2*n)
		eidx := NewEdgeIndex(g)
		cfg := Config{Depth: 1 + r.Intn(3), Fanout: 1 + r.Intn(5)}
		batch := randomBatch(r, n, 1+r.Intn(min(8, n)))
		s := standardShaDow(g, eidx, batch, cfg, r.Uint64())
		checkInvariants(t, g, batch, cfg, s)
	}
}

func TestBulkMatrixShaDowPropertyInvariants(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 30; trial++ {
		n := 10 + r.Intn(120)
		g := randomGraph(r, n, 2*n)
		eidx := NewEdgeIndex(g)
		cfg := Config{Depth: 1 + r.Intn(3), Fanout: 1 + r.Intn(5)}
		k := 1 + r.Intn(4)
		batches := make([][]int, k)
		for b := range batches {
			batches[b] = randomBatch(r, n, 1+r.Intn(min(8, n)))
		}
		subs := bulkShaDow(g, eidx, batches, cfg, r.Uint64())
		if len(subs) != k {
			t.Fatalf("bulk returned %d subgraphs for %d batches", len(subs), k)
		}
		for b, s := range subs {
			checkInvariants(t, g, batches[b], cfg, s)
		}
	}
}

// makeStreams returns one deterministic stream per batch vertex.
func makeStreams(seed uint64, batch []int) []*rng.Rand {
	streams := make([]*rng.Rand, len(batch))
	for i := range batch {
		streams[i] = rng.New(seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
	}
	return streams
}

func subgraphsEqual(a, b *Subgraph) bool {
	if a.Components != b.Components || len(a.Vertices) != len(b.Vertices) || len(a.Src) != len(b.Src) {
		return false
	}
	for i := range a.Vertices {
		if a.Vertices[i] != b.Vertices[i] {
			return false
		}
	}
	for i := range a.Roots {
		if a.Roots[i] != b.Roots[i] {
			return false
		}
	}
	for i := range a.Src {
		if a.Src[i] != b.Src[i] || a.Dst[i] != b.Dst[i] || a.EdgeIDs[i] != b.EdgeIDs[i] {
			return false
		}
	}
	return true
}

// TestStreamsStandardBulkEquivalence: with per-root streams the standard
// and bulk-matrix samplers are the same function.
func TestStreamsStandardBulkEquivalence(t *testing.T) {
	r := rng.New(47)
	for trial := 0; trial < 30; trial++ {
		n := 10 + r.Intn(120)
		g := randomGraph(r, n, 3*n)
		eidx := NewEdgeIndex(g)
		cfg := Config{Depth: 1 + r.Intn(3), Fanout: 1 + r.Intn(4)}
		batch := randomBatch(r, n, 1+r.Intn(min(10, n)))
		seed := r.Uint64()
		std := StandardShaDowStreams(g, eidx, batch, cfg, makeStreams(seed, batch))
		bulk := BulkMatrixShaDowStreams(g, eidx, [][]int{batch}, cfg, [][]*rng.Rand{makeStreams(seed, batch)})[0]
		checkInvariants(t, g, batch, cfg, std)
		if !subgraphsEqual(std, bulk) {
			t.Fatalf("trial %d: standard and bulk-matrix disagree under per-root streams", trial)
		}
	}
}

// TestStreamsStackingInvariance: a batch's subgraph does not depend on
// which other batches are stacked into the bulk call — the property that
// makes bulk batch count k a pure performance knob.
func TestStreamsStackingInvariance(t *testing.T) {
	r := rng.New(53)
	for trial := 0; trial < 20; trial++ {
		n := 20 + r.Intn(100)
		g := randomGraph(r, n, 3*n)
		eidx := NewEdgeIndex(g)
		cfg := Config{Depth: 2, Fanout: 3}
		perm := r.Perm(n)
		b1, b2, b3 := perm[0:4], perm[4:8], perm[8:12]
		seed := r.Uint64()
		streams := func(b []int, off uint64) []*rng.Rand {
			s := make([]*rng.Rand, len(b))
			for i := range b {
				s[i] = rng.New(seed ^ ((off + uint64(i+1)) * 0x9e3779b97f4a7c15))
			}
			return s
		}
		// All three stacked at once vs sampled one batch at a time.
		stacked := BulkMatrixShaDowStreams(g, eidx, [][]int{b1, b2, b3}, cfg,
			[][]*rng.Rand{streams(b1, 0), streams(b2, 100), streams(b3, 200)})
		solo1 := BulkMatrixShaDowStreams(g, eidx, [][]int{b1}, cfg, [][]*rng.Rand{streams(b1, 0)})[0]
		solo2 := BulkMatrixShaDowStreams(g, eidx, [][]int{b2}, cfg, [][]*rng.Rand{streams(b2, 100)})[0]
		solo3 := BulkMatrixShaDowStreams(g, eidx, [][]int{b3}, cfg, [][]*rng.Rand{streams(b3, 200)})[0]
		for i, pair := range [][2]*Subgraph{{stacked[0], solo1}, {stacked[1], solo2}, {stacked[2], solo3}} {
			if !subgraphsEqual(pair[0], pair[1]) {
				t.Fatalf("trial %d: batch %d differs between stacked and solo bulk calls", trial, i)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
