package graph

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomGraph(r *rng.Rand, n, m int) *Graph {
	src := make([]int, m)
	dst := make([]int, m)
	for k := 0; k < m; k++ {
		src[k] = r.Intn(n)
		dst[k] = r.Intn(n)
	}
	return New(n, src, dst)
}

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(5)
	if !u.Union(0, 1) {
		t.Fatal("first union should merge")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union should not merge")
	}
	u.Union(2, 3)
	if u.Find(0) != u.Find(1) || u.Find(2) != u.Find(3) {
		t.Fatal("merged elements have different roots")
	}
	if u.Find(0) == u.Find(2) || u.Find(4) == u.Find(0) {
		t.Fatal("separate sets share a root")
	}
}

func TestConnectedComponentsPath(t *testing.T) {
	// Two paths: 0-1-2 and 3-4; vertex 5 isolated.
	g := New(6, []int{0, 1, 3}, []int{1, 2, 4})
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("path 0-1-2 split")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("path 3-4 wrong")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("isolated vertex merged")
	}
}

func TestUnionFindMatchesBFS(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(40) + 1
		m := r.Intn(80)
		g := randomGraph(r, n, m)
		ufLabels, ufCount := g.ConnectedComponents()
		bfsLabels, bfsCount := componentsBFS(g)
		if ufCount != bfsCount {
			return false
		}
		// Ids are handed out in order of first appearance by vertex.
		next := 0
		for _, l := range ufLabels {
			if l > next {
				return false
			}
			if l == next {
				next++
			}
		}
		// Labels must induce the same partition (they may be permuted).
		mapping := make(map[int]int)
		for v := range ufLabels {
			if mapped, ok := mapping[ufLabels[v]]; ok {
				if mapped != bfsLabels[v] {
					return false
				}
			} else {
				mapping[ufLabels[v]] = bfsLabels[v]
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentMembers(t *testing.T) {
	g := New(5, []int{0, 2}, []int{1, 3})
	labels, count := g.ConnectedComponents()
	members := ComponentMembers(labels, count)
	if want := [][]int{{0, 1}, {2, 3}, {4}}; !reflect.DeepEqual(members, want) {
		t.Fatalf("members %v, want %v", members, want)
	}
	// The groups share one array; each is capped, so growing one leaves
	// the next alone.
	_ = append(members[0], 9)
	if members[1][0] != 2 {
		t.Fatalf("append to group 0 overwrote group 1: %v", members)
	}
}

func TestBlockDiagPreservesComponentCount(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		// The disjoint union of the graphs, vertex ids offset block by
		// block, has exactly the components of its blocks.
		var src, dst []int
		n, wantTotal := 0, 0
		for i := 0; i < int(seed%4)+1; i++ {
			g := randomGraph(r, r.Intn(15)+1, r.Intn(20))
			_, c := g.ConnectedComponents()
			wantTotal += c
			for k := range g.Src {
				src = append(src, g.Src[k]+n)
				dst = append(dst, g.Dst[k]+n)
			}
			n += g.N
		}
		_, got := New(n, src, dst).ConnectedComponents()
		return got == wantTotal
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterEdges(t *testing.T) {
	g := New(4, []int{0, 1, 2}, []int{1, 2, 3})
	f := g.FilterEdges([]bool{true, false, true})
	if f.NumEdges() != 2 || f.Src[0] != 0 || f.Src[1] != 2 {
		t.Fatalf("filtered edges wrong: %v -> %v", f.Src, f.Dst)
	}
	_, count := f.ConnectedComponents()
	if count != 2 { // {0,1}, {2,3}
		t.Fatalf("filtered component count %d, want 2", count)
	}
}

func TestDegrees(t *testing.T) {
	// A vertex's degree is its adjacency row count: each undirected edge
	// once per endpoint, a self-loop once.
	g := New(3, []int{0, 0, 1}, []int{1, 2, 1}) // self-loop at 1
	adj := g.Adjacency()
	deg := []int{adj.RowNnz(0), adj.RowNnz(1), adj.RowNnz(2)}
	if deg[0] != 2 || deg[1] != 2 || deg[2] != 1 {
		t.Fatalf("degrees %v", deg)
	}
	if adj.At(1, 1) != 1 {
		t.Fatalf("self-loop entry %v, want 1", adj.At(1, 1))
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	g := New(4, []int{0, 1}, []int{1, 3})
	adj := g.Adjacency()
	if adj.At(0, 1) != 1 || adj.At(1, 0) != 1 || adj.At(3, 1) != 1 {
		t.Fatal("adjacency not symmetric")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	New(2, []int{0}, []int{5})
}

// componentsBFS computes component labels by breadth-first search — an
// independent oracle for the union-find labelling.
func componentsBFS(g *Graph) (labels []int, count int) {
	adj := g.Adjacency()
	labels = make([]int, g.N)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int
	for start := 0; start < g.N; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = count
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			cols, _ := adj.Row(v)
			for _, w := range cols {
				if labels[w] == -1 {
					labels[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}
