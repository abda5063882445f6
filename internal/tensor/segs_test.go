package tensor

import (
	"math"
	"testing"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/rng"
)

// The segmented GEMM must equal, bit for bit, the three-kernel chain it
// stands in for — materialise [seg₀ ‖ seg₁ ‖ …] with GatherRows and
// ConcatColsIntoCtx, MatMulIntoCtx, then AddBias[ReLU]IntoCtx — for any
// segment count and widths, any k%4 and n%4, any direct/gathered mix,
// any row count around the register block and any worker count.

// segsCase is one randomly drawn virtual operand with the materialised
// matrix it denotes.
type segsCase[T fp.Float] struct {
	segs []Seg[T]
	cat  *Matrix[T] // [seg₀ ‖ seg₁ ‖ …], built by GatherRows + ConcatCols
}

// drawSegs draws 1–MaxSegs segments of the given row count whose widths
// sum to a k with k%4 == kRes. Gathered segments index a source of
// unrelated height with repeats and no order; every third element is
// zeroed so the per-quad and per-element skip paths run.
func drawSegs[T fp.Float](r *rng.Rand, rows, kRes int) segsCase[T] {
	nseg := 1 + r.Intn(MaxSegs)
	widths := make([]int, nseg)
	k := 0
	for i := range widths {
		widths[i] = 1 + r.Intn(9) // 1..9: multiples of 4 and not
		k += widths[i]
	}
	widths[nseg-1] += (kRes - k%4 + 4) % 4
	var c segsCase[T]
	parts := make([]*Matrix[T], nseg)
	for i, w := range widths {
		if r.Intn(2) == 0 {
			m := ConvertFrom[T](nil, RandN(r, rows, w, 1))
			sprinkleZeros(m)
			c.segs = append(c.segs, Seg[T]{M: m})
			parts[i] = m
			continue
		}
		srcRows := 1 + r.Intn(rows+3)
		m := ConvertFrom[T](nil, RandN(r, srcRows, w, 1))
		sprinkleZeros(m)
		idx := make([]int, rows) // non-nil even when rows == 0
		for j := range idx {
			idx[j] = r.Intn(srcRows)
		}
		c.segs = append(c.segs, Seg[T]{M: m, Idx: idx})
		parts[i] = GatherRows(m, idx)
	}
	c.cat = ConcatCols(parts...)
	return c
}

func sprinkleZeros[T fp.Float](m *Matrix[T]) {
	d := m.Data()
	for i := 0; i < len(d); i += 3 {
		d[i] = 0
	}
}

func testMatMulSegsMatchesChain[T fp.Float](t *testing.T, seed uint64) {
	r := rng.New(seed)
	serial := kernels.Context{Workers: 1}
	// Rows on both sides of the MR = 4 (f64) and MR = 2 (f32) register
	// blocks, and enough for several parallel chunks.
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 9, 37} {
		for kRes := 0; kRes < 4; kRes++ {
			for nRes := 0; nRes < 4; nRes++ {
				c := drawSegs[T](r, rows, kRes)
				k := c.cat.Cols()
				n := 4*r.Intn(3) + nRes
				if n == 0 {
					n = 4
				}
				if k%4 != kRes || n%4 != nRes {
					t.Fatalf("drew k=%d n=%d for residues %d/%d", k, n, kRes, nRes)
				}
				b := ConvertFrom[T](nil, RandN(r, k, n, 1))
				bias := ConvertFrom[T](nil, RandN(r, 1, n, 1))
				prod := NewOf[T](rows, n)
				MatMulIntoCtx(serial, prod, c.cat, b)
				withBias, withReLU := NewOf[T](rows, n), NewOf[T](rows, n)
				AddBiasIntoCtx(serial, withBias, prod, bias)
				AddBiasReLUIntoCtx(serial, withReLU, prod, bias)
				for _, w := range parityWorkers {
					kc := kernels.Context{Workers: w}
					got := NewOf[T](rows, n)
					MatMulSegsIntoCtx(kc, got, b, nil, false, c.segs...)
					matBitsEqual(t, "MatMulSegs", prod, got)
					MatMulSegsIntoCtx(kc, got, b, bias, false, c.segs...)
					matBitsEqual(t, "MatMulSegs+bias", withBias, got)
					MatMulSegsIntoCtx(kc, got, b, bias, true, c.segs...)
					matBitsEqual(t, "MatMulSegs+bias+ReLU", withReLU, got)
				}
			}
		}
	}
}

func TestMatMulSegsMatchesChainBitwise(t *testing.T) {
	testMatMulSegsMatchesChain[float64](t, 500)
}

func TestMatMulSegsMatchesChainBitwiseF32(t *testing.T) {
	testMatMulSegsMatchesChain[float32](t, 600)
}

// TestMatMulSegsWideOutput crosses the gemmJB column-block boundary, so
// a row block is gathered once per column block and the epilogue runs
// per block tile.
func TestMatMulSegsWideOutput(t *testing.T) {
	r := rng.New(11)
	c := drawSegs[float64](r, 13, 1)
	n := gemmJB + 7
	b := RandN(r, c.cat.Cols(), n, 1)
	bias := RandN(r, 1, n, 1)
	want := New(13, n)
	MatMulInto(want, c.cat, b)
	AddBiasReLUInto(want, want, bias)
	for _, w := range parityWorkers {
		got := New(13, n)
		MatMulSegsIntoCtx(kernels.Context{Workers: w}, got, b, bias, true, c.segs...)
		matBitsEqual(t, "MatMulSegs wide", want, got)
	}
}

// TestMatMulSegsZeroSkipMasksSpecialValues is
// TestTiledMatMulZeroSkipMasksSpecialValues through a gathered segment:
// the zero quads and tail elements of the gathered rows must keep
// Inf/NaN in the b rows they hit out of the accumulators.
func TestMatMulSegsZeroSkipMasksSpecialValues(t *testing.T) {
	const m, k, n = 6, 9, 10
	r := rng.New(7)
	a := RandN(r, m, k, 1)
	b := RandN(r, k, n, 1)
	for j := 0; j < k; j++ {
		a.Set(0, j, 0)
	}
	for j := 0; j < 4; j++ {
		a.Set(1, j, 0)
	}
	a.Set(2, 8, 0)
	for j := 0; j < n; j++ {
		b.Set(0, j, math.Inf(1))
		b.Set(2, j, math.NaN())
		b.Set(8, j, math.Inf(-1))
	}
	idx := []int{2, 0, 5, 1, 0, 2, 4}
	want := refMatMul(GatherRows(a, idx), b)
	for j := 0; j < n; j++ {
		if v := want.At(1, j); v != 0 {
			t.Fatalf("reference row 1 col %d = %v, want the poison masked to 0", j, v)
		}
	}
	for _, w := range parityWorkers {
		got := New(len(idx), n)
		MatMulSegsIntoCtx(kernels.Context{Workers: w}, got, b, nil, false, Seg[float64]{M: a, Idx: idx})
		matBitsEqual(t, "MatMulSegs special values", want, got)
	}
}

func TestMatMulSegsShapePanics(t *testing.T) {
	x, e, w := New(5, 3), New(7, 2), New(8, 4)
	idx := make([]int, 7)
	seg := func(m *Dense, idx []int) Seg[float64] { return Seg[float64]{M: m, Idx: idx} }
	good := []Seg[float64]{seg(x, idx), seg(x, idx), seg(e, nil)}
	kc := kernels.Context{}
	cases := map[string]func(){
		"segment row counts":  func() { MatMulSegsIntoCtx(kc, New(7, 4), w, nil, false, seg(x, idx), seg(x, nil), seg(e, nil)) },
		"index length":        func() { MatMulSegsIntoCtx(kc, New(7, 4), w, nil, false, seg(x, idx[:6]), seg(x, idx), seg(e, nil)) },
		"inner dimension":     func() { MatMulSegsIntoCtx(kc, New(7, 4), New(9, 4), nil, false, good...) },
		"output rows":         func() { MatMulSegsIntoCtx(kc, New(6, 4), w, nil, false, good...) },
		"output cols":         func() { MatMulSegsIntoCtx(kc, New(7, 5), w, nil, false, good...) },
		"bias width":          func() { MatMulSegsIntoCtx(kc, New(7, 4), w, New(1, 3), false, good...) },
		"ReLU without a bias": func() { MatMulSegsIntoCtx(kc, New(7, 4), w, nil, true, good...) },
		"no segments":         func() { MatMulSegsIntoCtx(kc, New(7, 4), w, nil, false) },
		"too many segments": func() {
			MatMulSegsIntoCtx(kc, New(7, 4), New(14, 4), nil, false,
				seg(e, nil), seg(e, nil), seg(e, nil), seg(e, nil), seg(e, nil), seg(e, nil), seg(e, nil))
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	MatMulSegsIntoCtx(kc, New(7, 4), w, New(1, 4), true, good...) // the well-formed call
}

// TestMatMulSegsZeroAllocsWarm pins the pooled-workspace contract on the
// segmented path at one worker: the segment list, the panel buffer and
// the row scratch cost no heap allocation once the pools are warm.
func TestMatMulSegsZeroAllocsWarm(t *testing.T) {
	r := rng.New(21)
	x := RandN(r, 9, 5, 1)
	e := RandN(r, 14, 3, 1)
	x32, e32 := ConvertFrom[float32](nil, x), ConvertFrom[float32](nil, e)
	w, bias := RandN(r, 13, 6, 1), RandN(r, 1, 6, 1)
	w32, bias32 := ConvertFrom[float32](nil, w), ConvertFrom[float32](nil, bias)
	src, dst := parityIdx(r, 14, 9), parityIdx(r, 14, 9)
	out, out32 := New(14, 6), NewOf[float32](14, 6)
	kc := kernels.Context{Workers: 1}
	run := func() {
		MatMulSegsIntoCtx(kc, out, w, bias, true,
			Seg[float64]{M: x, Idx: src}, Seg[float64]{M: x, Idx: dst}, Seg[float64]{M: e})
		MatMulSegsIntoCtx(kc, out32, w32, bias32, true,
			Seg[float32]{M: x32, Idx: src}, Seg[float32]{M: x32, Idx: dst}, Seg[float32]{M: e32})
	}
	run() // warm the panel and scratch pools
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warm segmented GEMM allocated %.1f per run, want 0", allocs)
	}
}
