package sparse

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// entry is one (row, column, value) triple for csrOf.
type entry struct {
	r, c int
	v    float64
}

// csrOf builds a rows×cols CSR from entries in any order, sorting them
// by (row, column) and summing the values of repeated coordinates.
func csrOf(rows, cols int, es []entry) *CSR {
	slices.SortStableFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.r, b.r), cmp.Compare(a.c, b.c))
	})
	out := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	for k, e := range es {
		if k > 0 && e.r == es[k-1].r && e.c == es[k-1].c {
			out.Vals[len(out.Vals)-1] += e.v
			continue
		}
		out.ColIdx = append(out.ColIdx, e.c)
		out.Vals = append(out.Vals, e.v)
		out.RowPtr[e.r+1]++
	}
	for i := 0; i < rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// randomCSR generates a random rows×cols CSR with the given density.
func randomCSR(r *rng.Rand, rows, cols int, density float64) *CSR {
	var es []entry
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				es = append(es, entry{i, j, r.NormFloat64()})
			}
		}
	}
	return csrOf(rows, cols, es)
}

func TestDenseRoundTrip(t *testing.T) {
	r := rng.New(1)
	a := randomCSR(r, 8, 11, 0.25)
	if !fromDense(a.ToDense()).Equal(a) {
		t.Fatal("CSR -> dense -> CSR changed matrix")
	}
}

func TestTransposeInvolution(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		a := randomCSR(r, r.Intn(12)+1, r.Intn(12)+1, 0.3)
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	r := rng.New(2)
	a := randomCSR(r, 6, 9, 0.3)
	if a.Transpose().ToDense().MaxAbsDiff(a.ToDense().Transpose()) != 0 {
		t.Fatal("sparse transpose != dense transpose")
	}
}

func TestSpGEMMMatchesDense(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 25; trial++ {
		m, k, n := r.Intn(12)+1, r.Intn(12)+1, r.Intn(12)+1
		a := randomCSR(r, m, k, 0.35)
		b := randomCSR(r, k, n, 0.35)
		got := SpGEMM(a, b)
		got.checkValid()
		want := tensor.MatMul(a.ToDense(), b.ToDense())
		if got.ToDense().MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("SpGEMM mismatch at trial %d", trial)
		}
	}
}

func TestSpGEMMIdentity(t *testing.T) {
	r := rng.New(4)
	a := randomCSR(r, 7, 7, 0.4)
	id := RowSelection([]int{0, 1, 2, 3, 4, 5, 6}, 7)
	if !SpGEMM(id, a).Equal(a) {
		t.Fatal("I*A != A")
	}
	if !SpGEMM(a, id).Equal(a) {
		t.Fatal("A*I != A")
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		m, k, n := r.Intn(15)+1, r.Intn(15)+1, r.Intn(6)+1
		a := randomCSR(r, m, k, 0.3)
		x := tensor.RandN(r, k, n, 1)
		got := tensor.New(m, n)
		SpMMIntoCtx(kernels.Context{}, got, a, x)
		want := tensor.MatMul(a.ToDense(), x)
		if got.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("SpMM mismatch at trial %d", trial)
		}
	}
}

func TestRowSelectionExtractsRows(t *testing.T) {
	r := rng.New(6)
	a := randomCSR(r, 10, 8, 0.4)
	idx := []int{7, 2, 2, 0}
	sel := SpGEMM(RowSelection(idx, 10), a)
	want := tensor.GatherRows(a.ToDense(), idx)
	if sel.ToDense().MaxAbsDiff(want) != 0 {
		t.Fatal("row selection SpGEMM != row gather")
	}
}

func TestExtractSubmatrixMatchesDirect(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(20) + 2
		a := randomCSR(r, n, n, 0.3)
		k := r.Intn(n) + 1
		idx := r.SampleWithoutReplacement(n, k)
		viaSpGEMM := ExtractSubmatrix(a, idx)
		direct := extractSubmatrixDirect(a, idx)
		return viaSpGEMM.Equal(direct)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractSubmatrixValues(t *testing.T) {
	// 0-1-2 path graph; extracting {0, 2} keeps no edges; {1, 2} keeps one.
	a := FromEdges(3, []int{0, 1}, []int{1, 2}, true)
	sub := ExtractSubmatrix(a, []int{0, 2})
	if sub.Nnz() != 0 {
		t.Fatalf("induced {0,2} should be empty, got %d nnz", sub.Nnz())
	}
	sub = ExtractSubmatrix(a, []int{1, 2})
	if sub.Nnz() != 2 || sub.At(0, 1) != 1 || sub.At(1, 0) != 1 {
		t.Fatalf("induced {1,2} wrong: %v", sub.ToDense())
	}
}

func TestBlockDiag(t *testing.T) {
	a := FromEdges(2, []int{0}, []int{1}, true)
	b := FromEdges(3, []int{0, 1}, []int{1, 2}, true)
	d := BlockDiag(a, b)
	d.checkValid()
	if d.Rows() != 5 || d.Cols() != 5 {
		t.Fatalf("BlockDiag shape %dx%d", d.Rows(), d.Cols())
	}
	// Cross-block entries must be zero.
	for i := 0; i < 2; i++ {
		for j := 2; j < 5; j++ {
			if d.At(i, j) != 0 || d.At(j, i) != 0 {
				t.Fatalf("cross-block entry (%d,%d) nonzero", i, j)
			}
		}
	}
	if d.At(0, 1) != 1 || d.At(2, 3) != 1 || d.At(3, 4) != 1 {
		t.Fatal("block contents wrong")
	}
}

func TestFromEdgesSymmetric(t *testing.T) {
	a := FromEdges(4, []int{0, 1, 1}, []int{1, 2, 2}, true)
	if a.At(0, 1) != 1 || a.At(1, 0) != 1 {
		t.Fatal("symmetrization missing")
	}
	if a.At(1, 2) != 1 || a.Nnz() != 4 {
		t.Fatalf("duplicate edge not collapsed: nnz=%d", a.Nnz())
	}
	for name, build := range map[string]func(){
		"length mismatch": func() { FromEdges(4, []int{0, 1}, []int{1}, true) },
		"source ≥ n":      func() { FromEdges(4, []int{4}, []int{1}, false) },
		"negative dest":   func() { FromEdges(4, []int{0}, []int{-1}, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromEdges did not panic", name)
				}
			}()
			build()
		}()
	}
}

// rowStreams splits one generator per row of a matrix with n rows.
func rowStreams(r *rng.Rand, n int) []*rng.Rand {
	out := make([]*rng.Rand, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

func TestSampleRowsBounds(t *testing.T) {
	r := rng.New(8)
	a := FromEdges(30, seqInts(29), seqIntsFrom(1, 29), true) // path graph
	for _, s := range []int{1, 2, 5} {
		res := SampleRowsStreams(a, s, rowStreams(r, a.Rows()))
		for i, samp := range res {
			if len(samp) > s {
				t.Fatalf("row %d sampled %d > fanout %d", i, len(samp), s)
			}
			if a.RowNnz(i) <= s && len(samp) != a.RowNnz(i) {
				t.Fatalf("row %d with %d nnz should keep all, got %d", i, a.RowNnz(i), len(samp))
			}
			seen := map[int]bool{}
			for _, c := range samp {
				if a.At(i, c) == 0 {
					t.Fatalf("row %d sampled non-neighbor %d", i, c)
				}
				if seen[c] {
					t.Fatalf("row %d sampled duplicate %d", i, c)
				}
				seen[c] = true
			}
		}
	}
}

func TestSampleRowsDeterministic(t *testing.T) {
	a := FromEdges(50, seqInts(49), seqIntsFrom(1, 49), true)
	s1 := SampleRowsStreams(a, 2, rowStreams(rng.New(9), a.Rows()))
	s2 := SampleRowsStreams(a, 2, rowStreams(rng.New(9), a.Rows()))
	for i := range s1 {
		if len(s1[i]) != len(s2[i]) {
			t.Fatalf("row %d lengths differ", i)
		}
		for k := range s1[i] {
			if s1[i][k] != s2[i][k] {
				t.Fatalf("row %d sample %d differs", i, k)
			}
		}
	}
}

func TestAtOnMissingEntry(t *testing.T) {
	a := FromEdges(3, []int{0}, []int{1}, false)
	if a.At(2, 2) != 0 || a.At(1, 0) != 0 {
		t.Fatal("missing entries should read 0")
	}
}

func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func seqIntsFrom(start, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = start + i
	}
	return s
}

func TestGatherRowsMatchesSpGEMMSelection(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(25) + 2
		a := randomCSR(r, n, n, 0.3)
		k := r.Intn(3*n) + 1
		idx := make([]int, k)
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		viaGather := GatherRowsInto(new(CSR), a, idx)
		viaSpGEMM := SpGEMM(RowSelection(idx, n), a)
		return viaGather.Equal(viaSpGEMM)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// extractSubmatrixDirect computes the same A[idx, idx] as ExtractSubmatrix
// with a direct hash-based relabeling: the independent oracle for the
// SpGEMM formulation.
func extractSubmatrixDirect(a *CSR, idx []int) *CSR {
	pos := make(map[int]int, len(idx))
	for i, v := range idx {
		pos[v] = i
	}
	rowCols := make([][]int, len(idx))
	rowVals := make([][]float64, len(idx))
	for i, v := range idx {
		cols, vals := a.Row(v)
		var rc []int
		var rv []float64
		for k, c := range cols {
			if j, ok := pos[c]; ok {
				rc = append(rc, j)
				rv = append(rv, vals[k])
			}
		}
		// Row is traversed in increasing source-column order, but target
		// labels follow idx order, so sort by target column.
		insertionSortPairs(rc, rv)
		rowCols[i], rowVals[i] = rc, rv
	}
	return assembleRows(len(idx), len(idx), rowCols, rowVals)
}

func insertionSortPairs(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// assembleRows builds a CSR from per-row (cols, vals) slices.
func assembleRows(rows, cols int, rowCols [][]int, rowVals [][]float64) *CSR {
	out := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	for i, rc := range rowCols {
		out.RowPtr[i+1] = out.RowPtr[i] + len(rc)
		out.ColIdx = append(out.ColIdx, rc...)
		out.Vals = append(out.Vals, rowVals[i]...)
	}
	return out
}

// fromDense converts a dense matrix to CSR, dropping exact zeros.
func fromDense(d *tensor.Dense) *CSR {
	var es []entry
	for i := 0; i < d.Rows(); i++ {
		for j, v := range d.Row(i) {
			if v != 0 {
				es = append(es, entry{i, j, v})
			}
		}
	}
	return csrOf(d.Rows(), d.Cols(), es)
}
