package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
)

func naiveMatMul(a, b *Dense) *Dense {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			s := 0.0
			for p := 0; p < a.Cols(); p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomMat(r *rng.Rand, rows, cols int) *Dense {
	return RandN(r, rows, cols, 1)
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 30; trial++ {
		m, k, n := r.Intn(20)+1, r.Intn(20)+1, r.Intn(20)+1
		a, b := randomMat(r, m, k), randomMat(r, k, n)
		got, want := MatMul(a, b), naiveMatMul(a, b)
		if !got.equalApprox(want, 1e-12) {
			t.Fatalf("MatMul mismatch at %dx%dx%d: diff %v", m, k, n, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(2)
	a := randomMat(r, 7, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(a, id).equalApprox(a, 1e-14) || !MatMul(id, a).equalApprox(a, 1e-14) {
		t.Fatal("identity multiplication altered matrix")
	}
}

func TestMatMulAssociativity(t *testing.T) {
	r := rng.New(3)
	a, b, c := randomMat(r, 5, 6), randomMat(r, 6, 4), randomMat(r, 4, 3)
	left := MatMul(MatMul(a, b), c)
	right := MatMul(a, MatMul(b, c))
	if !left.equalApprox(right, 1e-10) {
		t.Fatalf("(AB)C != A(BC): diff %v", left.MaxAbsDiff(right))
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		m, k, n := r.Intn(15)+1, r.Intn(15)+1, r.Intn(15)+1
		a, b := randomMat(r, m, k), randomMat(r, n, k)
		got := New(m, n)
		MatMulTIntoCtx(kernels.Context{}, got, a, b)
		if want := MatMul(a, b.Transpose()); !got.equalApprox(want, 1e-12) {
			t.Fatalf("MatMulTIntoCtx mismatch: %v", got.MaxAbsDiff(want))
		}
		c := randomMat(r, k, n)
		a2 := randomMat(r, k, m)
		got2 := New(m, n)
		TMatMulIntoCtx(kernels.Context{}, got2, a2, c)
		if want := MatMul(a2.Transpose(), c); !got2.equalApprox(want, 1e-12) {
			t.Fatalf("TMatMulIntoCtx mismatch: %v", got2.MaxAbsDiff(want))
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	check := func(seed uint64, rRaw, cRaw uint8) bool {
		rows, cols := int(rRaw%20)+1, int(cRaw%20)+1
		m := randomMat(rng.New(seed), rows, cols)
		return m.Transpose().Transpose().equalApprox(m, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubInverse(t *testing.T) {
	r := rng.New(5)
	a, b := randomMat(r, 9, 4), randomMat(r, 9, 4)
	got := New(9, 4)
	AddInto(got, a, b)
	got.AXPY(-1, b)
	if !got.equalApprox(a, 1e-14) {
		t.Fatal("(a+b)-b != a")
	}
}

func TestMulCommutes(t *testing.T) {
	r := rng.New(6)
	a, b := randomMat(r, 6, 6), randomMat(r, 6, 6)
	ab, ba := New(6, 6), New(6, 6)
	MulInto(ab, a, b)
	MulInto(ba, b, a)
	if !ab.equalApprox(ba, 0) {
		t.Fatal("Hadamard product not commutative")
	}
	for i, v := range ab.Data() {
		if v != a.Data()[i]*b.Data()[i] {
			t.Fatalf("MulInto element %d = %v, want %v", i, v, a.Data()[i]*b.Data()[i])
		}
	}
}

func TestScaleLinearity(t *testing.T) {
	r := rng.New(7)
	a := randomMat(r, 5, 5)
	sum := New(5, 5)
	AddInto(sum, a, a)
	scaled := New(5, 5)
	ScaleInto(scaled, 2, a)
	if !scaled.equalApprox(sum, 1e-14) {
		t.Fatal("2a != a+a")
	}
}

func TestAddBias(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}})
	got := New(2, 2)
	AddBiasRef(got, m, b)
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if !got.equalApprox(want, 0) {
		t.Fatalf("AddBiasRef got %v", got)
	}
}

func TestColRowSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	cs := New(1, 3)
	m.ColSumsInto(cs)
	if !cs.equalApprox(FromRows([][]float64{{5, 7, 9}}), 0) {
		t.Fatalf("ColSumsInto got %v", cs)
	}
	rs := New(2, 1)
	m.RowSumsInto(rs)
	if !rs.equalApprox(FromRows([][]float64{{6}, {15}}), 0) {
		t.Fatalf("RowSumsInto got %v", rs)
	}
	if m.Sum() != 21 {
		t.Fatalf("Sum got %v", m.Sum())
	}
	if m.Mean() != 3.5 {
		t.Fatalf("Mean got %v", m.Mean())
	}
}

func TestConcatSplitColsRoundTrip(t *testing.T) {
	r := rng.New(8)
	a, b, c := randomMat(r, 7, 3), randomMat(r, 7, 1), randomMat(r, 7, 5)
	cat := New(7, 9)
	ConcatColsRef(cat, a, b, c)
	off := 0
	for i, want := range []*Dense{a, b, c} {
		part := New(7, want.Cols())
		ExtractColsInto(part, cat, off)
		if !part.equalApprox(want, 0) {
			t.Fatalf("ExtractColsInto did not invert ConcatColsRef for part %d", i)
		}
		off += want.Cols()
	}
}

func TestConcatRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	got := ConcatRows(a, b)
	want := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !got.equalApprox(want, 0) {
		t.Fatalf("ConcatRows got %v", got)
	}
}

func TestGatherScatterAdjoint(t *testing.T) {
	// <Gather(x, idx), y> == <x, ScatterAdd(y, idx)> — the adjoint identity
	// that autograd relies on.
	r := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		n, m, c := r.Intn(20)+2, r.Intn(30)+1, r.Intn(5)+1
		x := randomMat(r, n, c)
		y := randomMat(r, m, c)
		idx := make([]int, m)
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		g := GatherRows(x, idx)
		MulInto(g, g, y)
		lhs := g.Sum()
		sc := New(n, c)
		ScatterAddRows(sc, y, idx)
		MulInto(sc, x, sc)
		rhs := sc.Sum()
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}

func TestGatherRowsValues(t *testing.T) {
	m := FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}})
	g := GatherRows(m, []int{2, 0, 2})
	want := FromRows([][]float64{{2, 2}, {0, 0}, {2, 2}})
	if !g.equalApprox(want, 0) {
		t.Fatalf("GatherRows got %v", g)
	}
}

func TestScatterAddAccumulates(t *testing.T) {
	dst := New(2, 1)
	src := FromRows([][]float64{{1}, {2}, {4}})
	ScatterAddRows(dst, src, []int{0, 0, 1})
	want := FromRows([][]float64{{3}, {4}})
	if !dst.equalApprox(want, 0) {
		t.Fatalf("ScatterAddRows got %v", dst)
	}
}

func TestSliceRowsAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	v := m.SliceRows(1, 3)
	v.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("SliceRows does not alias parent storage")
	}
}

func TestReshapePreservesData(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r := FromSlice(3, 2, m.Data())
	want := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !r.equalApprox(want, 0) {
		t.Fatalf("FromSlice reshape got %v", r)
	}
	r.Set(0, 0, 99)
	if m.At(0, 0) != 99 {
		t.Fatal("FromSlice does not alias the slice it wraps")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { MatMul(New(2, 3), New(2, 3)) },
		func() { AddInto(New(2, 3), New(2, 3), New(3, 2)) },
		func() { AddBiasRef(New(2, 3), New(2, 3), New(1, 2)) },
		func() { ConcatColsRef(New(2, 6), New(2, 3), New(3, 3)) },
		func() { FromSlice(2, 2, []float64{1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestXavierHeInitScale(t *testing.T) {
	r := rng.New(10)
	w := XavierInit(r, 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range w.Data() {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
}

func TestNorm2(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if math.Abs(m.Norm2()-5) > 1e-14 {
		t.Fatalf("Norm2 got %v", m.Norm2())
	}
}

func TestAXPY(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{10, 10}})
	a.AXPY(0.5, b)
	if !a.equalApprox(FromRows([][]float64{{6, 7}}), 1e-15) {
		t.Fatalf("AXPY got %v", a)
	}
}

// equalApprox reports whether all elements differ by at most tol.
func (m *Matrix[T]) equalApprox(o *Matrix[T], tol float64) bool {
	return m.SameShape(o) && m.MaxAbsDiff(o) <= tol
}

// concatCols concatenates matrices horizontally through ConcatColsRef.
func concatCols[T fp.Float](ms ...*Matrix[T]) *Matrix[T] {
	rows, cols := concatColsShape(ms)
	out := NewOf[T](rows, cols)
	ConcatColsRef(out, ms...)
	return out
}

// Sum returns the sum of all elements (accumulated in T).
func (m *Matrix[T]) Sum() float64 {
	var s T
	for _, v := range m.data {
		s += v
	}
	return float64(s)
}

// Mean returns the mean of all elements (0 for an empty matrix).
func (m *Matrix[T]) Mean() float64 {
	if len(m.data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.data))
}
