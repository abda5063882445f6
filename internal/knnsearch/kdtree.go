// Package knnsearch implements fixed-radius nearest-neighbor search in the
// learned embedding space — stage 2 of the Exa.TrkX pipeline, which the
// paper's stack delegates to FAISS/FRNN on GPU. BuildRadiusGraphCtx
// indexes the embedding rows in a k-d tree and answers one radius query
// per row to assemble the event graph the downstream filter and GNN
// stages consume.
//
// The tree is flat: a permutation of the finite rows in tree order, a
// copy of their coordinates in the same order and one split coordinate
// per inner node, all borrowed from the workspace pools. A node is a
// range of the permutation, split at its median along the node's axis
// (found by quickselect, not a sort); a range of at most leafSize rows is
// a leaf bucket whose coordinates are scanned contiguously. Nodes are
// numbered as in a binary heap, so there are no child pointers.
//
// The index and the graph builder are generic over the embedding element
// type, so the float32 inference path searches f32 embeddings directly
// (half the bytes per scanned row) instead of widening them first.
package knnsearch

import (
	"cmp"
	"slices"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// leafSize is the most rows a leaf bucket holds.
const leafSize = 16

// kdIndex is a flat k-d tree over the finite rows of a dense matrix.
// Nodes are numbered as in a binary heap: the root is 1 and node id's
// children are 2·id and 2·id+1. Node id at depth d covers perm[lo:hi];
// when it holds more than leafSize rows it splits on axis d % dim at mid =
// lo + (hi-lo)/2, the median found when it was built: the rows of its
// left child perm[lo:mid] have an axis coordinate ≤ splits[id] and the
// rows of its right child perm[mid:hi] one ≥ it.
type kdIndex[T fp.Float] struct {
	dim    int
	perm   []int // row ids in tree order (pooled)
	coords []T   // coords[k*dim:(k+1)*dim] is row perm[k] (pooled)
	splits []T   // splits[id] is inner node id's split coordinate (pooled)
}

// newKDIndex builds the index over the finite rows of pts. A row with a
// NaN or infinite coordinate is left out: at a finite radius its squared
// distance to any row is NaN or +Inf, so it has no neighbors anyway, and
// a NaN split would hide the rows on its far side from every query.
// release returns its buffers to the pools.
func newKDIndex[T fp.Float](pts *tensor.Matrix[T]) kdIndex[T] {
	n, dim := pts.Rows(), pts.Cols()
	data := pts.Data()
	x := kdIndex[T]{dim: dim, perm: workspace.GetInt(n)[:0]}
	for i := 0; i < n; i++ {
		if finite(data[i*dim : (i+1)*dim]) {
			x.perm = append(x.perm, i)
		}
	}
	// Inner nodes sit above the depth at which the larger (right) half
	// first fits in a leaf, so their ids stay below 2^depth.
	inner := 1
	for rows := len(x.perm); rows > leafSize; rows -= rows / 2 {
		inner *= 2
	}
	x.splits = workspace.GetFloat[T](inner)
	x.split(data, 1, 0, len(x.perm), 0)
	x.coords = workspace.GetFloat[T](len(x.perm) * dim)
	for k, p := range x.perm {
		copy(x.coords[k*dim:(k+1)*dim], data[p*dim:(p+1)*dim])
	}
	return x
}

func (x *kdIndex[T]) release() {
	workspace.PutInt(x.perm)
	workspace.PutFloat(x.coords)
	workspace.PutFloat(x.splits)
}

// split orders perm[lo:hi] into the subtree rooted at node id.
func (x *kdIndex[T]) split(data []T, id, lo, hi, depth int) {
	if hi-lo <= leafSize {
		return
	}
	mid := lo + (hi-lo)/2
	axis := depth % x.dim
	coord := func(p int) T { return data[p*x.dim+axis] }
	selectKth(x.perm[lo:hi], mid-lo, coord)
	x.splits[id] = coord(x.perm[mid])
	x.split(data, 2*id, lo, mid, depth+1)
	x.split(data, 2*id+1, mid, hi, depth+1)
}

// appendNeighbors appends to out the id of every indexed row other than
// exclude whose squared distance to q is at most r2, in tree order. A far
// child is skipped when the query's offset from the split alone exceeds
// the radius; the walk keeps its pending far children on a fixed stack,
// deep enough for any tree (each level pushes at most one).
func (x *kdIndex[T]) appendNeighbors(out []int, q []T, r2 T, exclude int) []int {
	type node struct{ id, lo, hi, axis int }
	var stack [64]node
	top := 0
	dim := len(q)
	nd := node{1, 0, len(x.perm), 0}
	for {
		if nd.hi-nd.lo > leafSize {
			mid := nd.lo + (nd.hi-nd.lo)/2
			delta := q[nd.axis] - x.splits[nd.id]
			if nd.axis++; nd.axis == dim {
				nd.axis = 0
			}
			if delta > 0 {
				if delta*delta <= r2 {
					stack[top] = node{2 * nd.id, nd.lo, mid, nd.axis}
					top++
				}
				nd.id, nd.lo = 2*nd.id+1, mid
			} else {
				if delta*delta <= r2 {
					stack[top] = node{2*nd.id + 1, mid, nd.hi, nd.axis}
					top++
				}
				nd.id, nd.hi = 2*nd.id, mid
			}
			continue
		}
		out = x.scan(out, q, r2, exclude, nd.lo, nd.hi)
		if top == 0 {
			return out
		}
		top--
		nd = stack[top]
	}
}

// scan appends to out the id of every row of the leaf perm[lo:hi] other
// than exclude whose squared distance to q is at most r2.
func (x *kdIndex[T]) scan(out []int, q []T, r2 T, exclude, lo, hi int) []int {
	dim := len(q)
	coords := x.coords[lo*dim : hi*dim]
	for _, id := range x.perm[lo:hi] {
		row := coords[:dim]
		coords = coords[dim:]
		var d2 T
		for j, qv := range q {
			d := row[j] - qv
			d2 += d * d
		}
		if d2 <= r2 && id != exclude {
			out = append(out, id)
		}
	}
	return out
}

// BuildRadiusGraphCtx connects every pair of embedding rows within radius,
// each undirected pair emitted once (src < dst), in ascending src order
// and, per src, ascending dst order. maxDegree (if > 0) caps the
// neighbors considered per query vertex to its maxDegree smallest
// indices, mirroring the k-cap used by the production FRNN stage to bound
// graph size. A row with a NaN or infinite coordinate has no edges: at a
// finite radius it is within reach of no row anyway.
//
// The search runs over a flat k-d tree (see the package comment) whose
// buffers, the per-query neighbor buffer and the edge buffers all come
// from the workspace pools: with warm pools, the returned src and dst are
// the only allocations of a one-worker call. Capped queries use an O(len)
// partial selection of the maxDegree smallest indices instead of sorting
// the full candidate list — the output is identical to sorting ascending
// and truncating.
//
// Above one worker the query loop runs on the kernel layer's
// parallel-for (parallel.ForWithN) and its static contiguous chunks:
// each chunk answers a disjoint range of query vertices into its own
// edge buffer and the buffers concatenate in range order, so the output
// is bitwise identical to the serial loop at every worker count.
func BuildRadiusGraphCtx[T fp.Float](kc kernels.Context, embeddings *tensor.Matrix[T], radius float64, maxDegree int) (src, dst []int) {
	x := newKDIndex(embeddings)
	defer x.release()
	r2 := T(radius) * T(radius)
	n := embeddings.Rows()
	workers := kc.Cap()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		pairs := x.collectRange(embeddings, r2, maxDegree, 0, n)
		defer workspace.PutInt(pairs)
		return unzip(pairs)
	}
	// With workers ≤ n, ForWithN cuts [0, n) into workers chunks of
	// ⌈n/workers⌉ rows, so lo / chunk numbers a chunk.
	q := queries[T]{x: x, embeddings: embeddings, r2: r2, maxDegree: maxDegree,
		chunk: (n + workers - 1) / workers, parts: make([][]int, workers)}
	parallel.ForWithN(workers, n, 1, q, func(q queries[T], lo, hi int) {
		q.parts[lo/q.chunk] = q.x.collectRange(q.embeddings, q.r2, q.maxDegree, lo, hi)
	})
	src, dst = unzip(q.parts...)
	for _, p := range q.parts {
		workspace.PutInt(p)
	}
	return src, dst
}

// queries is what the parallel query loop's chunks share. It holds the
// index by value: a pointer would move the index to the heap on the
// one-worker path too.
type queries[T fp.Float] struct {
	x          kdIndex[T]
	embeddings *tensor.Matrix[T]
	r2         T
	maxDegree  int
	chunk      int
	parts      [][]int // parts[c] is chunk c's pooled pair buffer
}

// collectRange answers the radius queries of vertices [lo, hi) and
// returns their surviving i<j edges as a pooled buffer of (i, j) pairs
// in ascending vertex order. The caller puts the buffer back.
func (x *kdIndex[T]) collectRange(embeddings *tensor.Matrix[T], r2 T, maxDegree int, lo, hi int) []int {
	// A query finds at most every indexed row, so nbrs never regrows.
	nbrs := workspace.GetInt(len(x.perm))
	defer workspace.PutInt(nbrs)
	pairs := workspace.GetInt(4 * (hi - lo))[:0]
	for i := lo; i < hi; i++ {
		q := embeddings.Row(i)
		if !finite(q) {
			continue
		}
		found := x.appendNeighbors(nbrs[:0], q, r2, i)
		if maxDegree > 0 && len(found) > maxDegree {
			selectSmallest(found, maxDegree)
			found = found[:maxDegree]
		}
		later := found[:0]
		for _, j := range found {
			if i < j {
				later = append(later, j)
			}
		}
		slices.Sort(later)
		pairs = reserve(pairs, 2*len(later))
		for _, j := range later {
			pairs = append(pairs, i, j)
		}
	}
	return pairs
}

// reserve makes room for n more entries in a pooled pair buffer,
// regrowing it through the pools so that a warm build does not allocate.
func reserve(pairs []int, n int) []int {
	if len(pairs)+n <= cap(pairs) {
		return pairs
	}
	grown := workspace.GetInt(2*cap(pairs) + n)[:len(pairs)]
	copy(grown, pairs)
	workspace.PutInt(pairs)
	return grown
}

// unzip concatenates (i, j) pair buffers, in order, into exactly sized
// edge lists.
func unzip(parts ...[]int) (src, dst []int) {
	total := 0
	for _, p := range parts {
		total += len(p) / 2
	}
	src, dst = make([]int, total), make([]int, total)
	k := 0
	for _, p := range parts {
		for e := 0; e < len(p); e += 2 {
			src[k], dst[k] = p[e], p[e+1]
			k++
		}
	}
	return src, dst
}

// finite reports whether every coordinate of row is finite: v-v is 0 for
// a finite v and NaN for a NaN or an infinity.
func finite[T fp.Float](row []T) bool {
	for _, v := range row {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// selectKth partially orders s (quickselect with a median-of-three
// pivot) so that s[k] has the k-th smallest key, no element before it a
// larger key and no element after it a smaller one. Keys must not be NaN.
func selectKth[K cmp.Ordered](s []int, k int, key func(int) K) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if key(s[mid]) < key(s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if key(s[hi]) < key(s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if key(s[hi]) < key(s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := key(s[mid])
		i, j := lo, hi
		for i <= j {
			for key(s[i]) < pivot {
				i++
			}
			for key(s[j]) > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// selectSmallest partially partitions s so its first k elements are the
// k smallest, in arbitrary order.
func selectSmallest(s []int, k int) {
	selectKth(s, k-1, func(v int) int { return v })
}
