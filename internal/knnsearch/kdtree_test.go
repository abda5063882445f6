package knnsearch

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestRadiusNeighborsMatchesBrute(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(80) + 2
		dim := r.Intn(6) + 1
		pts := tensor.RandN(r, n, dim, 1)
		tree := newKDIndex(pts)
		for trial := 0; trial < 5; trial++ {
			q := pts.Row(r.Intn(n))
			radius := 0.2 + r.Float64()
			got := tree.radiusNeighbors(q, radius, -1)
			want := bruteRadiusNeighbors(pts, q, radius, -1)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
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

func TestRadiusNeighborsExclude(t *testing.T) {
	pts := tensor.FromRows([][]float64{{0, 0}, {0.1, 0}, {5, 5}})
	tree := newKDIndex(pts)
	nbrs := tree.radiusNeighbors(pts.Row(0), 1.0, 0)
	if len(nbrs) != 1 || nbrs[0] != 1 {
		t.Fatalf("neighbors %v, want [1]", nbrs)
	}
	with := tree.radiusNeighbors(pts.Row(0), 1.0, -1)
	if len(with) != 2 {
		t.Fatalf("without exclusion got %v", with)
	}
}

func TestRadiusZeroFindsExactDuplicates(t *testing.T) {
	pts := tensor.FromRows([][]float64{{1, 1}, {1, 1}, {2, 2}})
	tree := newKDIndex(pts)
	nbrs := tree.radiusNeighbors([]float64{1, 1}, 0, -1)
	if len(nbrs) != 2 {
		t.Fatalf("exact match count %d, want 2", len(nbrs))
	}
}

func TestBuildRadiusGraphPairsUniqueAndOrdered(t *testing.T) {
	r := rng.New(3)
	pts := tensor.RandN(r, 60, 3, 1)
	src, dst := BuildRadiusGraphCtx(kernels.Context{}, pts, 0.8, 0)
	seen := map[[2]int]bool{}
	for k := range src {
		if src[k] >= dst[k] {
			t.Fatalf("edge %d not src<dst: (%d,%d)", k, src[k], dst[k])
		}
		key := [2]int{src[k], dst[k]}
		if seen[key] {
			t.Fatalf("duplicate edge %v", key)
		}
		seen[key] = true
	}
}

func TestBuildRadiusGraphMatchesBrute(t *testing.T) {
	r := rng.New(4)
	pts := tensor.RandN(r, 40, 2, 1)
	radius := 0.5
	src, dst := BuildRadiusGraphCtx(kernels.Context{}, pts, radius, 0)
	got := map[[2]int]bool{}
	for k := range src {
		got[[2]int{src[k], dst[k]}] = true
	}
	count := 0
	for i := 0; i < 40; i++ {
		for _, j := range bruteRadiusNeighbors(pts, pts.Row(i), radius, i) {
			if i < j {
				count++
				if !got[[2]int{i, j}] {
					t.Fatalf("missing edge (%d,%d)", i, j)
				}
			}
		}
	}
	if count != len(src) {
		t.Fatalf("edge count %d, brute force %d", len(src), count)
	}
}

func TestBuildRadiusGraphMaxDegree(t *testing.T) {
	// A dense cluster: cap should bound per-vertex emitted neighbors.
	r := rng.New(5)
	pts := tensor.RandN(r, 50, 2, 0.01)
	srcUncapped, _ := BuildRadiusGraphCtx(kernels.Context{}, pts, 1.0, 0)
	srcCapped, _ := BuildRadiusGraphCtx(kernels.Context{}, pts, 1.0, 5)
	if len(srcCapped) >= len(srcUncapped) {
		t.Fatalf("degree cap did not reduce edges: %d vs %d", len(srcCapped), len(srcUncapped))
	}
}

func TestEmptyAndSinglePoint(t *testing.T) {
	tree := newKDIndex(tensor.New(0, 3))
	if nbrs := tree.radiusNeighbors([]float64{0, 0, 0}, 1, -1); len(nbrs) != 0 {
		t.Fatal("empty tree returned neighbors")
	}
	one := newKDIndex(tensor.FromRows([][]float64{{1, 2, 3}}))
	if nbrs := one.radiusNeighbors([]float64{1, 2, 3}, 0.1, -1); len(nbrs) != 1 {
		t.Fatal("single-point tree missed self")
	}
}

// TestBuildRadiusGraphMatchesSortTruncate pins the maxDegree semantics:
// the partial-selection fast path must emit exactly the maxDegree
// smallest neighbor indices in ascending order — identical to sorting
// the full candidate list and truncating.
func TestBuildRadiusGraphMatchesSortTruncate(t *testing.T) {
	r := rng.New(11)
	pts := tensor.RandN(r, 300, 3, 1)
	for _, maxDeg := range []int{0, 1, 3, 12, 1000} {
		src, dst := BuildRadiusGraphCtx(kernels.Context{}, pts, 0.8, maxDeg)
		tree := newKDIndex(pts)
		var wantSrc, wantDst []int
		for i := 0; i < pts.Rows(); i++ {
			nbrs := tree.radiusNeighbors(pts.Row(i), 0.8, i) // sorted ascending
			if maxDeg > 0 && len(nbrs) > maxDeg {
				nbrs = nbrs[:maxDeg]
			}
			for _, j := range nbrs {
				if i < j {
					wantSrc = append(wantSrc, i)
					wantDst = append(wantDst, j)
				}
			}
		}
		if len(src) != len(wantSrc) {
			t.Fatalf("maxDeg=%d: %d edges, want %d", maxDeg, len(src), len(wantSrc))
		}
		for k := range src {
			if src[k] != wantSrc[k] || dst[k] != wantDst[k] {
				t.Fatalf("maxDeg=%d: edge %d = (%d,%d), want (%d,%d)", maxDeg, k, src[k], dst[k], wantSrc[k], wantDst[k])
			}
		}
	}
}

func TestSelectSmallest(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40) + 1
		k := r.Intn(n) + 1
		s := make([]int, n)
		for i := range s {
			s[i] = r.Intn(1000)
		}
		want := append([]int(nil), s...)
		slices.Sort(want)
		selectSmallest(s, k)
		got := append([]int(nil), s[:k]...)
		slices.Sort(got)
		for i := 0; i < k; i++ {
			if got[i] != want[i] {
				t.Fatalf("trial %d: k=%d smallest mismatch: got %v want %v", trial, k, got, want[:k])
			}
		}
	}
}

// TestSelectKth pins the split invariant the index rests on: after
// selectKth by a row's coordinate on one axis, s is still a permutation,
// no row before position k has a larger coordinate than row s[k], and no
// row after it a smaller one — with many ties.
func TestSelectKth(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(40) + 1
		dim := r.Intn(3) + 1
		axis := r.Intn(dim)
		data := make([]float64, n*dim)
		for i := range data {
			data[i] = float64(r.Intn(6))
		}
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		k := r.Intn(n)
		selectKth(s, k, func(p int) float64 { return data[p*dim+axis] })
		key := func(i int) float64 { return data[s[i]*dim+axis] }
		for i := range s {
			if (i < k && key(i) > key(k)) || (i > k && key(i) < key(k)) {
				t.Fatalf("trial %d: n=%d k=%d: position %d has key %v against the split's %v", trial, n, k, i, key(i), key(k))
			}
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("trial %d: s is no longer a permutation: %v", trial, s)
			}
		}
	}
}

// radiusNeighbors returns indices of all points within Euclidean distance
// radius of query (a slice of length dim), excluding exclude (pass -1 to
// keep all). Results are sorted ascending.
func (x *kdIndex[T]) radiusNeighbors(query []T, radius float64, exclude int) []int {
	if len(query) != x.dim {
		panic("knnsearch: query dimension mismatch")
	}
	out := x.appendNeighbors(nil, query, T(radius)*T(radius), exclude)
	sort.Ints(out)
	return out
}

// bruteRadiusNeighbors is the O(n·d) oracle for the tree search.
func bruteRadiusNeighbors[T fp.Float](pts *tensor.Matrix[T], query []T, radius float64, exclude int) []int {
	var out []int
	r2 := T(radius) * T(radius)
	for i := 0; i < pts.Rows(); i++ {
		if i == exclude {
			continue
		}
		row := pts.Row(i)
		var d2 T
		for j, qv := range query {
			d := row[j] - qv
			d2 += d * d
		}
		if d2 <= r2 {
			out = append(out, i)
		}
	}
	return out
}
