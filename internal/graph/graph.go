// Package graph provides the graph representation and algorithms the
// pipeline needs: CSR adjacency built from edge lists, union-find
// connected components (the paper's final track-building stage), induced
// subgraphs, and block-diagonal composition of sampled subgraphs.
package graph

import (
	"fmt"

	"repro/internal/sparse"
)

// Graph is an undirected graph stored both as an edge list (the GNN
// consumes edges in list order: Src[k] → Dst[k]) and as a symmetric CSR
// adjacency for traversal and sampling.
type Graph struct {
	N   int   // number of vertices
	Src []int // edge source endpoints, one per (undirected) edge
	Dst []int // edge destination endpoints

	adj *sparse.CSR // symmetric adjacency, built lazily
}

// New creates a graph with n vertices and the given undirected edge list.
func New(n int, src, dst []int) *Graph {
	if len(src) != len(dst) {
		panic("graph: src/dst length mismatch")
	}
	for k := range src {
		if src[k] < 0 || src[k] >= n || dst[k] < 0 || dst[k] >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) outside %d vertices", src[k], dst[k], n))
		}
	}
	return &Graph{N: n, Src: src, Dst: dst}
}

// NumEdges returns the number of stored (undirected) edges.
func (g *Graph) NumEdges() int { return len(g.Src) }

// Adjacency returns the symmetric CSR adjacency matrix, building and
// caching it on first use.
func (g *Graph) Adjacency() *sparse.CSR {
	if g.adj == nil {
		g.adj = sparse.FromEdges(g.N, g.Src, g.Dst, true)
	}
	return g.adj
}

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b; returns true if they were distinct.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// ConnectedComponents labels every vertex with a component id in
// [0, #components) using union-find over the edge list. Ids are assigned
// in order of first appearance by vertex index.
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	u := NewUnionFind(g.N)
	for k := range g.Src {
		u.Union(g.Src[k], g.Dst[k])
	}
	// A root is a vertex of its own component, so its entry in labels
	// doubles as the root-to-id map: it is set when the component is
	// first seen, at or before the root's own turn.
	labels = make([]int, g.N)
	for v := range labels {
		labels[v] = -1
	}
	for v := range labels {
		root := u.Find(v)
		if labels[root] < 0 {
			labels[root] = count
			count++
		}
		labels[v] = labels[root]
	}
	return labels, count
}

// ComponentMembers groups vertices by component label, each group in
// ascending vertex order. The groups are capped windows of one array
// (a counting sort), so an append to one cannot write into the next.
func ComponentMembers(labels []int, count int) [][]int {
	sizes := make([]int, count)
	for _, c := range labels {
		sizes[c]++
	}
	flat := make([]int, len(labels))
	members := make([][]int, count)
	lo := 0
	for c, n := range sizes {
		members[c] = flat[lo : lo : lo+n]
		lo += n
	}
	for v, c := range labels {
		members[c] = append(members[c], v)
	}
	return members
}

// FilterEdges returns a new graph keeping edge k iff keep[k].
func (g *Graph) FilterEdges(keep []bool) *Graph {
	if len(keep) != len(g.Src) {
		panic("graph: FilterEdges mask length mismatch")
	}
	src, dst := SelectEdges(g.Src, g.Dst, keep)
	return New(g.N, src, dst)
}

// SelectEdges returns the edges k with keep[k], in order, in exactly
// sized slices.
func SelectEdges(src, dst []int, keep []bool) (fsrc, fdst []int) {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	fsrc, fdst = make([]int, 0, n), make([]int, 0, n)
	for k, ok := range keep {
		if ok {
			fsrc = append(fsrc, src[k])
			fdst = append(fdst, dst[k])
		}
	}
	return fsrc, fdst
}
