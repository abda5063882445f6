// Package knnsearch implements fixed-radius nearest-neighbor search in the
// learned embedding space — stage 2 of the Exa.TrkX pipeline, which the
// paper's stack delegates to FAISS/FRNN on GPU. A k-d tree over the
// embedding rows answers radius queries; BuildRadiusGraph assembles the
// event graph the downstream filter and GNN stages consume.
//
// The tree and the graph builder are generic over the embedding element
// type, so the float32 inference path searches f32 embeddings directly
// (half the bytes per visited node) instead of widening them first.
package knnsearch

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// KDTree is a static k-d tree over the rows of a dense matrix.
type KDTree[T fp.Float] struct {
	pts   *tensor.Matrix[T]
	dim   int
	root  *node
	nodes []node // slab: all nodes in one allocation, pointers into it
}

type node struct {
	point       int // row index into pts
	axis        int
	left, right *node
}

// Build constructs a balanced k-d tree over all rows of pts. The tree's
// nodes live in one slab allocation sized up front, so building costs
// O(1) allocations rather than one per row.
func Build[T fp.Float](pts *tensor.Matrix[T]) *KDTree[T] {
	t := &KDTree[T]{pts: pts, dim: pts.Cols()}
	n := pts.Rows()
	t.nodes = make([]node, 0, n)
	idx := workspace.GetInt(n)
	defer workspace.PutInt(idx)
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx, 0)
	return t
}

func (t *KDTree[T]) build(idx []int, depth int) *node {
	if len(idx) == 0 {
		return nil
	}
	axis := depth % t.dim
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Compare(t.pts.At(a, axis), t.pts.At(b, axis))
	})
	mid := len(idx) / 2
	// The slab was sized to hold every node, so append never reallocates
	// and the pointer stays valid.
	t.nodes = append(t.nodes, node{point: idx[mid], axis: axis})
	n := &t.nodes[len(t.nodes)-1]
	// Re-sorted halves: the sort above reorders idx in place, and the
	// recursive calls re-sort disjoint sub-slices, so views are safe.
	n.left = t.build(idx[:mid], depth+1)
	n.right = t.build(idx[mid+1:], depth+1)
	return n
}

func (t *KDTree[T]) search(n *node, q []T, r2 T, exclude int, out *[]int) {
	if n == nil {
		return
	}
	row := t.pts.Row(n.point)
	var d2 T
	for j, qv := range q {
		d := row[j] - qv
		d2 += d * d
		if d2 > r2 {
			break
		}
	}
	if d2 <= r2 && n.point != exclude {
		*out = append(*out, n.point)
	}
	delta := q[n.axis] - row[n.axis]
	near, far := n.left, n.right
	if delta > 0 {
		near, far = far, near
	}
	t.search(near, q, r2, exclude, out)
	if delta*delta <= r2 {
		t.search(far, q, r2, exclude, out)
	}
}

// BuildRadiusGraphCtx connects every pair of embedding rows within radius,
// each undirected pair emitted once (src < dst). maxDegree (if > 0) caps
// the neighbors considered per query vertex, mirroring the k-cap used by
// the production FRNN stage to bound graph size.
//
// One pooled buffer per worker is reused across its radius queries, and
// capped queries use an O(len) partial selection of the maxDegree
// smallest indices instead of sorting the full candidate list — the
// output is identical to sorting ascending and truncating.
//
// The query loop is row-partitioned across kc's workers with the same
// static contiguous chunking the kernel layer uses: each worker answers
// a disjoint range of query vertices into its own edge buffer and the
// buffers concatenate in range order, so the output is bitwise
// identical to the serial loop at every worker count.
func BuildRadiusGraphCtx[T fp.Float](kc kernels.Context, embeddings *tensor.Matrix[T], radius float64, maxDegree int) (src, dst []int) {
	t := Build(embeddings)
	n := embeddings.Rows()
	workers := kc.Cap()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return t.collectRange(embeddings, radius, maxDegree, 0, n)
	}
	chunk := (n + workers - 1) / workers
	srcs := make([][]int, workers)
	dsts := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			srcs[w], dsts[w] = t.collectRange(embeddings, radius, maxDegree, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, s := range srcs {
		total += len(s)
	}
	src = make([]int, 0, total)
	dst = make([]int, 0, total)
	for w := range srcs {
		src = append(src, srcs[w]...)
		dst = append(dst, dsts[w]...)
	}
	return src, dst
}

// collectRange answers the radius queries of vertices [lo, hi),
// appending each query's surviving i<j edges to src/dst in ascending
// vertex order.
func (t *KDTree[T]) collectRange(embeddings *tensor.Matrix[T], radius float64, maxDegree int, lo, hi int) (src, dst []int) {
	r2 := T(radius) * T(radius)
	base := workspace.GetInt(embeddings.Rows())
	defer workspace.PutInt(base)
	for i := lo; i < hi; i++ {
		nbrs := base[:0]
		t.search(t.root, embeddings.Row(i), r2, i, &nbrs)
		if maxDegree > 0 && len(nbrs) > maxDegree {
			selectSmallest(nbrs, maxDegree)
			nbrs = nbrs[:maxDegree]
		}
		slices.Sort(nbrs)
		for _, j := range nbrs {
			if i < j {
				src = append(src, i)
				dst = append(dst, j)
			}
		}
	}
	return src, dst
}

// selectSmallest partially partitions s (quickselect) so its first k
// elements are the k smallest, in arbitrary order.
func selectSmallest(s []int, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot guards against adversarial orderings.
		mid := (lo + hi) / 2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
}
