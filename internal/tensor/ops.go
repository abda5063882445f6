package tensor

import (
	"fmt"
	"unsafe"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/parallel"
)

// matmulGrain is the minimum number of output rows per parallel chunk.
const matmulGrain = 8

// The parallel kernel bodies below are named top-level generic
// functions whose float64 and float32 instantiations are bound once
// into package variables: materializing a generic func value inside a
// generic kernel would allocate a dictionary-carrying closure per call
// and break the zero-allocation contract (see fp.Pick). pickBody
// selects the pre-bound instantiation with a branch and an interface
// assertion.
func pickBody[T fp.Float, C any](v64, v32 any) func(C, int, int) {
	return fp.Pick[T, func(C, int, int)](v64, v32)
}

var (
	matMulTBody64       any = matMulTBody[float64]
	matMulTBody32       any = matMulTBody[float32]
	tMatMulBody64       any = tMatMulBody[float64]
	tMatMulBody32       any = tMatMulBody[float32]
	gatherRowsBody64    any = gatherRowsBody[float64]
	gatherRowsBody32    any = gatherRowsBody[float32]
	gatherConcat3Body64 any = gatherConcat3Body[float64]
	gatherConcat3Body32 any = gatherConcat3Body[float32]
)

// MatMulIntoCtx computes out = a×b under an explicit intra-op worker
// budget. out must be preallocated with shape a.rows × b.cols and must
// not alias a or b. It allocates as MatMulSegsIntoCtx does: nothing in
// a steady-state call on one worker, the fork's few objects on more.
// It is the one-segment, no-epilogue call of the packed-panel GEMM in
// tiled.go, whose file comment states the accumulation contract: a is
// read in place, and row blocks partition statically, so the result is
// bitwise identical at every worker count.
func MatMulIntoCtx[T fp.Float](kc kernels.Context, out, a, b *Matrix[T]) {
	MatMulSegsIntoCtx(kc, out, b, nil, false, Seg[T]{M: a})
}

// matCtx carries kernel operands into capture-free parallel bodies (see
// parallel.ForWith).
type matCtx[T fp.Float] struct {
	out, a, b *Matrix[T]
}

// The two backward GEMMs of the tape, dA = dOut·Wᵀ (MatMulT) and
// dW = Aᵀ·dOut (TMatMul), each have a Go body and, on amd64 with AVX, an
// assembly tile for their float64 full tiles (gemm_amd64.s), chosen by
// the same simdGEMM probe as the forward GEMM's tile. The Go bodies run
// the remainder rows and columns, every float32 call and everything off
// amd64, and they are the tests' reference. Each lane of a tile does the
// Go body's scalar arithmetic for one output: separate multiplies and
// adds (no FMA), the a value first in a multiply and the accumulator
// first in an add, so every output bit equals the Go body's. Outputs
// partition by row and no sum crosses outputs, so results are identical
// at every worker count. As in tiled.go, which of two different NaN
// payloads survives an add is the one bit left unpinned.

// MatMulTIntoCtx computes out = a×bᵀ without forming bᵀ, under an
// explicit intra-op worker budget. out must have shape a.rows × b.rows
// and must not alias a or b.
//
// Bitwise contract: out[i,j], the dot product of row i of a and row j of
// b over k = a.cols, is four stride sums from +0, s_l += a[p]·b[p] over
// ascending p ≡ l (mod 4) in the leading k &^ 3 elements, reduced
// ((s0+s1)+s2)+s3, then the k % 4 tail terms added in ascending p.
// Nothing is skipped, so Inf and NaN always propagate. The AVX tile
// computes 2×4 outputs with s0..s3 as the lanes of one register per
// output and reduces four outputs at once through a 4×4 transpose; the
// tail terms are then added in Go.
func MatMulTIntoCtx[T fp.Float](kc kernels.Context, out, a, b *Matrix[T]) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dims %d vs %d", a.cols, b.cols))
	}
	if out.rows != a.rows || out.cols != b.rows {
		panic("tensor: MatMulTIntoCtx output shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), a.rows, matmulGrain, matCtx[T]{out, a, b},
		pickBody[T, matCtx[T]](matMulTBody64, matMulTBody32))
}

// matMulTBody computes rows [lo, hi) of out = a×bᵀ (see MatMulTIntoCtx):
// full 2×4 tiles on the AVX kernel when simdGEMM is set, the element
// type is float64 and k holds a quad, everything else in Go.
func matMulTBody[T fp.Float](c matCtx[T], lo, hi int) {
	out, a, b := c.out, c.a, c.b
	k, n := a.cols, b.rows
	i := lo
	if tiles := n / 4; simdGEMM && !fp.Is32[T]() && k >= 4 && tiles > 0 {
		for ; i+2 <= hi; i += 2 {
			matMulTTiles(out.data[i*n:], n, a.data[i*k:], b.data, k, tiles)
			matMulTRows(c, i, i+2, 4*tiles)
		}
	}
	matMulTRows(c, i, hi, 0)
}

// matMulTRows is the Go body of MatMulTIntoCtx: out[i,j] for rows
// [lo, hi) and columns [j0, b.rows).
func matMulTRows[T fp.Float](c matCtx[T], lo, hi, j0 int) {
	out, a, b := c.out, c.a, c.b
	k, n := a.cols, b.rows
	for i := lo; i < hi; i++ {
		aRow := a.data[i*k : (i+1)*k]
		oRow := out.data[i*n : (i+1)*n]
		for j := j0; j < n; j++ {
			bRow := b.data[j*k : (j+1)*k]
			var s0, s1, s2, s3 T
			p := 0
			for ; p+4 <= k; p += 4 {
				s0 += aRow[p] * bRow[p]
				s1 += aRow[p+1] * bRow[p+1]
				s2 += aRow[p+2] * bRow[p+2]
				s3 += aRow[p+3] * bRow[p+3]
			}
			sum := s0 + s1 + s2 + s3
			for ; p < k; p++ {
				sum += aRow[p] * bRow[p]
			}
			oRow[j] = sum
		}
	}
}

// matMulTTiles runs the AVX kernel on the 2×4·tiles outputs o[r*n+c]
// (r < 2, c < 4·tiles) from rows a[r*k:(r+1)*k] and b[c*k:(c+1)*k],
// then adds the k % 4 tail terms to each stored sum in ascending p. The
// reslices bound every address the kernel touches.
func matMulTTiles[T fp.Float](o []T, n int, a, b []T, k, tiles int) {
	o, a, b = o[:n+4*tiles], a[:2*k], b[:4*tiles*k]
	matMulTTiles2x4F64((*float64)(unsafe.Pointer(&o[0])), n, (*float64)(unsafe.Pointer(&a[0])),
		(*float64)(unsafe.Pointer(&b[0])), k, tiles)
	if k%4 == 0 {
		return
	}
	for r := 0; r < 2; r++ {
		aRow := a[r*k : (r+1)*k]
		for c := 0; c < 4*tiles; c++ {
			bRow := b[c*k : (c+1)*k]
			sum := o[r*n+c]
			for p := k &^ 3; p < k; p++ {
				sum += aRow[p] * bRow[p]
			}
			o[r*n+c] = sum
		}
	}
}

// TMatMulIntoCtx computes out = aᵀ×b without forming aᵀ, under an
// explicit intra-op worker budget. out must have shape a.cols × b.cols
// and must not alias a or b.
//
// Bitwise contract: out[i,j] accumulates from +0 over ascending
// p < a.rows, out += a[p,i]·b[p,j], skipping every p whose a[p,i] equals
// zero, so Inf/NaN in the b rows behind a zero a value never reach it
// (NaN counts as nonzero and -0 as zero, as Go's == has it). The AVX
// tile holds a 2×16 output tile in registers across all p. Instead of
// branching, it masks a skipped term's product to +0 and adds it: a sum
// that starts at +0 is never -0 (in round-to-nearest x+y is -0 only when
// both are -0), and s + (+0) is s, bit for bit, for every other s,
// Inf and NaN included, so the masked add stores what the skip does.
func TMatMulIntoCtx[T fp.Float](kc kernels.Context, out, a, b *Matrix[T]) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dims %d vs %d", a.rows, b.rows))
	}
	if out.rows != a.cols || out.cols != b.cols {
		panic("tensor: TMatMulIntoCtx output shape mismatch")
	}
	// Parallelize over output rows (columns of a) to avoid write races.
	parallel.ForWithN(kc.Cap(), a.cols, 1, matCtx[T]{out, a, b},
		pickBody[T, matCtx[T]](tMatMulBody64, tMatMulBody32))
}

// tMatMulBody computes rows [lo, hi) of out = aᵀ×b (see TMatMulIntoCtx):
// full 2×16 tiles on the AVX kernel when simdGEMM is set, the element
// type is float64 and a has rows, everything else in Go.
func tMatMulBody[T fp.Float](c matCtx[T], lo, hi int) {
	out, a, b := c.out, c.a, c.b
	n := b.cols
	i, j0 := lo, 0
	if simdGEMM && !fp.Is32[T]() && a.rows > 0 && n >= 16 {
		j0 = n &^ 15
		for ; i+2 <= hi; i += 2 {
			for j := 0; j < j0; j += 16 {
				tMatMulTile(out.data[i*n+j:], n, a.data[i:], a.cols, b.data[j:], a.rows)
			}
		}
	}
	tMatMulRows(c, lo, i, j0)
	tMatMulRows(c, i, hi, 0)
}

// tMatMulRows is the Go body of TMatMulIntoCtx: out[i,j] for rows
// [lo, hi) and columns [j0, b.cols).
func tMatMulRows[T fp.Float](c matCtx[T], lo, hi, j0 int) {
	out, a, b := c.out, c.a, c.b
	n := b.cols
	if lo >= hi || j0 >= n {
		return
	}
	for i := lo; i < hi; i++ {
		clear(out.data[i*n+j0 : (i+1)*n])
	}
	for p := 0; p < a.rows; p++ {
		aRow := a.data[p*a.cols : (p+1)*a.cols]
		bRow := b.data[p*n+j0 : (p+1)*n]
		for i := lo; i < hi; i++ {
			av := aRow[i]
			if av == 0 {
				continue
			}
			oRow := out.data[i*n+j0 : (i+1)*n]
			for j, bv := range bRow {
				oRow[j] += av * bv
			}
		}
	}
}

// tMatMulTile runs the AVX kernel on the 2×16 outputs o[r*n+j] (r < 2,
// j < 16) from column pairs a[q*lda+r] and rows b[q*n : q*n+16] over
// q < p (p ≥ 1). The reslices bound every address the kernel touches.
func tMatMulTile[T fp.Float](o []T, n int, a []T, lda int, b []T, p int) {
	o, a, b = o[:n+16], a[:(p-1)*lda+2], b[:(p-1)*n+16]
	tMatMulTile2x16F64((*float64)(unsafe.Pointer(&o[0])), n, (*float64)(unsafe.Pointer(&a[0])), lda,
		(*float64)(unsafe.Pointer(&b[0])), p)
}

// AddInto computes out = a+b elementwise. out may alias a or b.
func AddInto[T fp.Float](out, a, b *Matrix[T]) {
	checkSame("Add", a, b)
	checkSame("AddInto", out, a)
	for i := range out.data {
		out.data[i] = a.data[i] + b.data[i]
	}
}

// AddInPlace computes m += o.
func (m *Matrix[T]) AddInPlace(o *Matrix[T]) {
	checkSame("AddInPlace", m, o)
	for i, v := range o.data {
		m.data[i] += v
	}
}

// MulInto computes out = a*b elementwise. out may alias a or b.
func MulInto[T fp.Float](out, a, b *Matrix[T]) {
	checkSame("Mul", a, b)
	checkSame("MulInto", out, a)
	for i := range out.data {
		out.data[i] = a.data[i] * b.data[i]
	}
}

// ScaleInto computes out = s*m elementwise. out may alias m.
func ScaleInto[T fp.Float](out *Matrix[T], s T, m *Matrix[T]) {
	checkSame("ScaleInto", out, m)
	for i, v := range m.data {
		out.data[i] = s * v
	}
}

// AXPY computes m += s*o.
func (m *Matrix[T]) AXPY(s T, o *Matrix[T]) {
	checkSame("AXPY", m, o)
	for i, v := range o.data {
		m.data[i] += s * v
	}
}

// ColSumsInto computes the per-column sums into the 1×cols matrix out.
func (m *Matrix[T]) ColSumsInto(out *Matrix[T]) {
	if out.rows != 1 || out.cols != m.cols {
		panic("tensor: ColSumsInto output shape mismatch")
	}
	for j := range out.data {
		out.data[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j] += v
		}
	}
}

// RowSumsInto computes the per-row sums into the rows×1 matrix out.
func (m *Matrix[T]) RowSumsInto(out *Matrix[T]) {
	if out.rows != m.rows || out.cols != 1 {
		panic("tensor: RowSumsInto output shape mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s T
		for _, v := range row {
			s += v
		}
		out.data[i] = s
	}
}

// ApplyInto computes out = f applied elementwise to m. out may alias m.
func ApplyInto[T fp.Float](out, m *Matrix[T], f func(T) T) {
	checkSame("ApplyInto", out, m)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
}

// gatherCtx carries GatherRowsIntoCtx operands into capture-free
// parallel bodies.
type gatherCtx[T fp.Float] struct {
	out, m *Matrix[T]
	idx    []int
}

// GatherRowsIntoCtx computes out[i] = m[idx[i]] under the intra-op
// worker budget kc; a row copy, so bitwise the same at every budget. out
// must have shape len(idx) × m.cols and must not alias m.
func GatherRowsIntoCtx[T fp.Float](kc kernels.Context, out, m *Matrix[T], idx []int) {
	if out.rows != len(idx) || out.cols != m.cols {
		panic("tensor: GatherRowsIntoCtx output shape mismatch")
	}
	parallel.ForWithN(kc.Cap(), len(idx), 256, gatherCtx[T]{out, m, idx},
		pickBody[T, gatherCtx[T]](gatherRowsBody64, gatherRowsBody32))
}

// gatherRowsBody copies rows [lo, hi): out[i] = m[idx[i]].
func gatherRowsBody[T fp.Float](c gatherCtx[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(c.out.data[i*c.m.cols:(i+1)*c.m.cols], c.m.Row(c.idx[i]))
	}
}

// ScatterAddRows adds row i of src into row idx[i] of dst.
// Rows of dst may be targeted by multiple sources; execution is serial per
// destination row so no synchronization is required.
func ScatterAddRows[T fp.Float](dst, src *Matrix[T], idx []int) {
	if src.cols != dst.cols {
		panic("tensor: ScatterAddRows col mismatch")
	}
	if len(idx) != src.rows {
		panic("tensor: ScatterAddRows index length mismatch")
	}
	for i, target := range idx {
		dRow := dst.data[target*dst.cols : (target+1)*dst.cols]
		sRow := src.data[i*src.cols : (i+1)*src.cols]
		for j, v := range sRow {
			dRow[j] += v
		}
	}
}

func checkSame[T fp.Float](op string, a, b *Matrix[T]) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
