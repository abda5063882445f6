package tensor

import (
	"math"
	"testing"

	"repro/internal/fp"
	"repro/internal/kernels"
)

// fuzzValues is the element table FuzzMatMulSegs draws from. Zero comes
// first, so an input that runs out of bytes reads zeros and exercises
// the skip paths. The NaN is the one an invalid operation (Inf·0,
// Inf−Inf) produces on amd64, so every NaN in a run shares one bit
// pattern: when two different NaNs meet in an add, which one survives
// depends on the operand order the Go compiler picks, and the compiler
// may commute a floating add. A single NaN pattern keeps the comparison
// bitwise without testing that choice.
var fuzzValues = [...]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 3, 1e300,
	math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff8000000000000),
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (d *fuzzBytes) next() int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b)
}

func (d *fuzzBytes) fill(data []float64) {
	for i := range data {
		data[i] = fuzzValues[d.next()%len(fuzzValues)]
	}
}

// FuzzMatMulSegs is a differential test of the two tile
// implementations: on shapes of m ≤ 9 rows, k from 1 to 12 (every
// residue mod 4), n from 1 to 40 (every residue mod 16, so at both
// panel widths, 4 columns at float64 and 8 at float32, wide tiles, odd
// one-panel tiles and partial panels all occur) and up to three
// segments, one of them gathered, with the bias and ReLU epilogue on or
// off, MatMulSegsIntoCtx must store the same bits on the AVX tile
// kernels as on the Go micro-kernels, at float64 and float32.
func FuzzMatMulSegs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 3, 2, 3, 1, 1, 5, 0, 2, 1, 3, 2, 8, 9, 10, 0, 0, 0, 0, 7, 4})
	f.Add([]byte{9, 11, 11, 1, 3, 0, 2, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1, 2})
	f.Add([]byte{8, 7, 5, 0, 2, 0, 0, 0, 10, 10, 10, 10, 8, 0, 9, 1, 6, 5, 4, 3})
	f.Add([]byte{9, 10, 26, 1, 12, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 3, 4, 5, 6, 7})
	if !simdGEMM {
		f.Skip("CPU has no AVX tile kernel to compare")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzBytes(data)
		m, k, n := d.next()%10, 1+d.next()%12, 1+d.next()%40
		nseg := min(1+d.next()%3, k)
		flags := d.next()
		gathered := flags % nseg
		bias, relu := flags&4 != 0, flags&12 == 12

		widths := make([]int, nseg)
		rest := k - nseg
		for s := range widths {
			widths[s] = 1
			if s < nseg-1 && rest > 0 {
				w := d.next() % (rest + 1)
				widths[s] += w
				rest -= w
			}
		}
		widths[nseg-1] += rest

		var segs []Seg[float64]
		for s, w := range widths {
			rows, idx := m, []int(nil)
			if s == gathered {
				rows = 1 + d.next()%9
				idx = make([]int, m)
				for i := range idx {
					idx[i] = d.next() % rows
				}
			}
			seg := Seg[float64]{M: New(rows, w), Idx: idx}
			d.fill(seg.M.Data())
			segs = append(segs, seg)
		}
		b := New(k, n)
		d.fill(b.Data())
		var bv *Dense
		if bias {
			bv = New(1, n)
			d.fill(bv.Data())
		}
		compareTileKernels(t, m, b, bv, relu, segs)

		segs32 := make([]Seg[float32], len(segs))
		for i, s := range segs {
			segs32[i] = Seg[float32]{M: ConvertFrom[float32](nil, s.M), Idx: s.Idx}
		}
		var bv32 *Matrix[float32]
		if bv != nil {
			bv32 = ConvertFrom[float32](nil, bv)
		}
		compareTileKernels(t, m, ConvertFrom[float32](nil, b), bv32, relu, segs32)
	})
}

// FuzzBackwardGEMM is the same differential test for the backward GEMMs:
// on m ≤ 9 output rows, a reduction of k ≤ 19 (every residue mod 4, and
// k = 0) and n from 1 to 39 output columns (every residue mod 4 and
// mod 16, up to two 16-wide tiles), MatMulTIntoCtx and TMatMulIntoCtx
// must store the same bits on the AVX tiles as on the Go bodies.
func FuzzBackwardGEMM(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 2, 2, 4, 4})
	f.Add([]byte{9, 18, 35, 10, 0, 8, 1, 9, 0, 10, 2, 3, 1, 1, 6, 5, 4})
	if !simdGEMM {
		f.Skip("CPU has no AVX tile kernel to compare")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzBytes(data)
		m, k, n := d.next()%10, d.next()%20, 1+d.next()%39
		g, w := New(m, k), New(n, k)
		a, b := New(k, m), New(k, n)
		for _, x := range []*Dense{g, a, w, b} {
			d.fill(x.Data())
		}
		compareBackwardKernels(t, "MatMulTIntoCtx", MatMulTIntoCtx[float64], g, w, m, n)
		compareBackwardKernels(t, "TMatMulIntoCtx", TMatMulIntoCtx[float64], a, b, m, n)
	})
}

// compareBackwardKernels runs one backward GEMM into an m×n output on
// the Go bodies, then with the AVX tiles, and requires the same bits.
func compareBackwardKernels(t *testing.T, name string, gemm func(kernels.Context, *Dense, *Dense, *Dense), a, b *Dense, m, n int) {
	t.Helper()
	kc := kernels.Context{Workers: 1}
	want, got := New(m, n), New(m, n)
	defer func() { simdGEMM = true }()
	simdGEMM = false
	gemm(kc, want, a, b)
	simdGEMM = true
	gemm(kc, got, a, b)
	matBitsEqual(t, name+": AVX tiles vs Go bodies", want, got)
}

// compareTileKernels runs one segmented GEMM on the Go micro-kernels,
// then on the AVX tile kernel, and requires the same bits.
func compareTileKernels[T fp.Float](t *testing.T, m int, b, bias *Matrix[T], relu bool, segs []Seg[T]) {
	t.Helper()
	kc := kernels.Context{Workers: 1}
	want, got := NewOf[T](m, b.Cols()), NewOf[T](m, b.Cols())
	defer func() { simdGEMM = true }()
	simdGEMM = false
	MatMulSegsIntoCtx(kc, want, b, bias, relu, segs...)
	simdGEMM = true
	MatMulSegsIntoCtx(kc, got, b, bias, relu, segs...)
	matBitsEqual(t, "AVX tile kernel vs Go micro-kernels", want, got)
}
