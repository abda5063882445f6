package tensor

import (
	"fmt"
	"unsafe"

	"repro/internal/fp"
	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/workspace"
)

// This file implements the GEMM: b packs once into 4-column panels
// (panel-major, zero-padded to a multiple of 4 columns) and an MR×4
// register micro-kernel accumulates MR output rows against one panel
// without touching the output row between k steps, so every output
// element is stored exactly once.
//
// The left operand is virtual: row i of A is the concatenation of up to
// MaxSegs column segments, each a matrix row taken directly or gathered
// through an index (Seg). A plain matrix is the one-segment case and is
// read in place; anything else is copied MR rows at a time into an
// L1-resident scratch, so the [rows × k] concatenation the GNN's edge
// and node networks multiply is never materialised. An optional
// epilogue adds a bias row (and applies ReLU) to each finished tile.
//
// Bitwise contract: every out[i,j] accumulates from zero over ascending
// k in quads, the quad sum associated as
// ((a0·b0 + a1·b1) + a2·b2) + a3·b3 and added to the accumulator, then
// single-k tail terms; a quad whose four a values are all zero (or a
// zero tail a value) is skipped for that row, so Inf/NaN in the b rows
// it would have touched never reach the accumulator. Row blocks
// partition statically and no accumulation crosses rows, so the result
// is identical at any worker count. Padded panel columns accumulate
// zeros into accumulators that are never stored. The micro-kernels see
// byte for byte the row ConcatColsRef/GatherConcat3IntoCtx would
// have built, and the epilogue performs AddBias[ReLU]Ref's
// arithmetic on the stored sum, so MatMulSegsIntoCtx equals that
// three-kernel chain bit for bit.
//
// Two implementations meet this contract. The Go micro-kernels
// (microGEMM4/2/1 with addBiasRow) run everywhere. On amd64 with AVX,
// full tiles instead run gemm_amd64.s, with bias and ReLU folded into
// the store. Two adjacent full panels of one gemmJB column block run as
// one MR×8 tile, 4×8 at float64 and 2×8 at float32, with one YMM
// (float64) or XMM (float32) accumulator per row per panel: each A
// quad's zero test and broadcasts then serve eight output columns
// instead of four. An odd last full panel of a column block runs the
// MR×4 tile (4×4, 2×4). simdGEMM picks the assembly once, at package
// init, from a CPUID/XGETBV probe; remainder rows, a partial last panel
// and k == 0 always take the Go path. Each vector lane is one output
// column doing the scalar arithmetic above: separate multiplies and adds
// (no FMA, which would round once instead of twice), the same quad
// association, and a zero test that, like Go's !=, counts NaN as
// nonzero and -0 as zero. Operand order matters only for NaN: when both
// operands of an add or multiply are NaN, x86 returns the first, so the
// kernel keeps the Go expressions' order (the a value first in a
// multiply, the accumulator first in an add) and ReLU is max(s, +0),
// which returns +0 for NaN as addBiasRow does. The Go compiler may
// commute a floating add, so which of two different NaN payloads
// survives is not pinned by either implementation; every other bit is.
// The tests run both implementations (forEachGEMMKernel) and
// FuzzMatMulSegs compares them directly.

// gemmJB is the column-block width in output columns (a multiple of
// the 8-wide AVX tile, so only the last block can hold an odd panel):
// the packed panels for 64 columns fit L1 alongside the A rows. gemmMR is the micro-kernel height. Both are the shapes
// that measured fastest per element type; PERF.md "Tile shapes" has the
// tables and the command to re-measure. They regroup loops only, so no
// value of either changes a result.
const gemmJB = 64

func gemmMR[T fp.Float]() int {
	if fp.Is32[T]() {
		return 2
	}
	return 4
}

// Seg is one column segment of a GEMM's virtual left operand: row i of
// the segment is M.Row(Idx[i]) when Idx is non-nil and M.Row(i)
// otherwise.
type Seg[T fp.Float] struct {
	M   *Matrix[T]
	Idx []int
}

// Rows returns the segment's row count.
func (s Seg[T]) Rows() int {
	if s.Idx != nil {
		return len(s.Idx)
	}
	return s.M.rows
}

// MaxSegs is the most segments one GEMM concatenates — the Interaction
// GNN's edge network reads six.
const MaxSegs = 6

var (
	gemmBody64 any = gemmBody[float64]
	gemmBody32 any = gemmBody[float32]
)

// gemmCtx carries the packed-GEMM operands into capture-free parallel
// bodies. The segments travel in a fixed-size array so a call captures
// no slice header that would escape to the heap.
type gemmCtx[T fp.Float] struct {
	out  *Matrix[T]
	segs [MaxSegs]Seg[T]
	nseg int
	k    int
	bp   []T // b packed into 4-column panels, zero-padded
	bias []T // epilogue bias row; nil for none
	relu bool
}

// MatMulSegsIntoCtx computes out = [seg₀ ‖ seg₁ ‖ …]×b, then
// out += bias on every row when bias is non-nil (a 1×b.cols row
// vector) and out = max(0, out) when relu is set, without building the
// concatenated operand: the result is bitwise what ConcatColsRef /
// GatherConcat3IntoCtx → MatMulIntoCtx → AddBias[ReLU]Ref store,
// at every worker count. All segments must agree on the row count,
// their widths must sum to b.rows, and out must not alias any operand.
// A steady-state call that runs on one worker performs no heap
// allocation; one that forks its rows across workers allocates the
// fork's job, closure and operand copy (3, plus 2 when it starts a
// helper goroutine; TestGEMMParallelAllocs pins at most 4).
func MatMulSegsIntoCtx[T fp.Float](kc kernels.Context, out, b, bias *Matrix[T], relu bool, segs ...Seg[T]) {
	if len(segs) == 0 || len(segs) > MaxSegs {
		panic(fmt.Sprintf("tensor: MatMulSegs takes 1 to %d segments, got %d", MaxSegs, len(segs)))
	}
	c := gemmCtx[T]{out: out, nseg: len(segs), relu: relu}
	rows := segs[0].Rows()
	for i, s := range segs {
		if s.Rows() != rows {
			panic(fmt.Sprintf("tensor: MatMulSegs row mismatch: segment %d has %d rows, segment 0 has %d", i, s.Rows(), rows))
		}
		c.segs[i] = s
		c.k += s.M.cols
	}
	if c.k != b.rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", c.k, b.rows))
	}
	if out.rows != rows || out.cols != b.cols {
		panic("tensor: MatMulInto output shape mismatch")
	}
	if bias != nil {
		if bias.rows != 1 || bias.cols != b.cols {
			panic(fmt.Sprintf("tensor: MatMulSegs bias %dx%d vs output cols %d", bias.rows, bias.cols, b.cols))
		}
		c.bias = bias.data
	} else if relu {
		panic("tensor: MatMulSegs ReLU epilogue needs a bias")
	}
	c.bp = workspace.GetFloat[T]((b.cols + 3) / 4 * 4 * c.k)
	packPanels(c.bp, b)
	parallel.ForWithN(kc.Cap(), rows, matmulGrain, c, pickBody[T, gemmCtx[T]](gemmBody64, gemmBody32))
	workspace.PutFloat(c.bp)
}

// packPanels copies b into 4-column panel-major layout: panel q holds
// columns [4q, 4q+4) contiguously as k rows of 4 elements, so the
// micro-kernel streams it sequentially whatever b's width. The last
// panel zero-pads columns past b.cols.
func packPanels[T fp.Float](bp []T, b *Matrix[T]) {
	n, k := b.cols, b.rows
	for q := 0; q < n/4; q++ {
		dst := bp[q*4*k : (q+1)*4*k]
		for p := 0; p < k; p++ {
			src := b.data[p*n+q*4 : p*n+q*4+4]
			dst[p*4] = src[0]
			dst[p*4+1] = src[1]
			dst[p*4+2] = src[2]
			dst[p*4+3] = src[3]
		}
	}
	if w := n % 4; w != 0 {
		dst := bp[(n/4)*4*k:]
		base := n - w
		for p := 0; p < k; p++ {
			for j := 0; j < 4; j++ {
				if j < w {
					dst[p*4+j] = b.data[p*n+base+j]
				} else {
					dst[p*4+j] = 0
				}
			}
		}
	}
}

// gemmBody computes rows [lo, hi) of the packed GEMM: column blocks of
// gemmJB/4 panels outermost (so a block's panels stay hot across row
// sweeps), MR-row blocks next, one micro-kernel call per (row-block,
// panel), each tile finished by the epilogue. When simdGEMM is set, a
// full MR-row block runs the AVX kernel on full panels, two at a time
// while the column block holds a pair and one for an odd last panel,
// with the epilogue folded into its store; remainder rows, a partial
// last panel and k == 0 run the Go micro-kernels and addBiasRow. A lone
// direct segment is read where it lies; otherwise each row block's
// virtual rows are first assembled in a per-chunk scratch.
func gemmBody[T fp.Float](c gemmCtx[T], lo, hi int) {
	out, k := c.out, c.k
	n := out.cols
	np := (n + 3) / 4
	mr := gemmMR[T]()
	var plain, scratch []T
	if c.nseg == 1 && c.segs[0].Idx == nil {
		plain = c.segs[0].M.data
	} else {
		scratch = workspace.GetFloat[T](mr * k)
		defer workspace.PutFloat(scratch)
	}
	const jbp = gemmJB / 4
	for q0 := 0; q0 < np; q0 += jbp {
		q1 := q0 + jbp
		if q1 > np {
			q1 = np
		}
		for i := lo; i < hi; {
			bs := hi - i
			switch {
			case mr >= 4 && bs >= 4:
				bs = 4
			case bs >= 2:
				bs = 2
			default:
				bs = 1
			}
			ad := scratch
			if plain != nil {
				ad = plain[i*k:]
			} else {
				off := 0
				for r := i; r < i+bs; r++ {
					for _, s := range c.segs[:c.nseg] {
						src, w := r, s.M.cols
						if s.Idx != nil {
							src = s.Idx[r]
						}
						copy(ad[off:off+w], s.M.data[src*w:(src+1)*w])
						off += w
					}
				}
			}
			for q := q0; q < q1; q++ {
				j := q * 4
				w := min(n-j, 4)
				off := i*n + j
				var bias []T
				if c.bias != nil {
					bias = c.bias[j:]
				}
				if simdGEMM && bs == mr && w == 4 && k > 0 {
					np := 1
					if q+1 < q1 && j+8 <= n {
						np = 2
					}
					tileKernel(out.data[off:], n, ad, c.bp[j*k:], k, bias, c.relu, np)
					if testHookTile != nil {
						testHookTile(off, np)
					}
					q += np - 1
					continue
				}
				panel := c.bp[j*k : j*k+4*k]
				switch bs {
				case 4:
					microGEMM4(
						out.data[off:off+w], out.data[off+n:off+n+w],
						out.data[off+2*n:off+2*n+w], out.data[off+3*n:off+3*n+w],
						ad[:k], ad[k:2*k], ad[2*k:3*k], ad[3*k:4*k], panel)
				case 2:
					microGEMM2(out.data[off:off+w], out.data[off+n:off+n+w],
						ad[:k], ad[k:2*k], panel)
				default:
					microGEMM1(out.data[off:off+w], ad[:k], panel)
				}
				if bias != nil {
					for r := off; r < off+bs*n; r += n {
						addBiasRow(out.data[r:r+w], bias, c.relu)
					}
				}
			}
			i += bs
		}
	}
}

// testHookTile, when non-nil, sees the output offset and panel count of
// every AVX tile gemmBody runs. Tests set it, at one worker, to check
// that each full panel is tiled exactly once and that panel pairs take
// the wide tile.
var testHookTile func(off, np int)

// tileKernel runs the AVX kernel on one full tile of np (1 or 2)
// adjacent panels: output rows o[r*n : r*n+4*np] from rows
// a[r*k : (r+1)*k] against the packed panels at the head of panels,
// with bias[:4*np] (bias nil for none) and relu folded into the store.
// The reslices bound every address the kernel touches.
func tileKernel[T fp.Float](o []T, n int, a, panels []T, k int, bias []T, relu bool, np int) {
	mr, w := gemmMR[T](), 4*np
	o, a, panels = o[:(mr-1)*n+w], a[:mr*k], panels[:w*k]
	var bp unsafe.Pointer
	if bias != nil {
		bp = unsafe.Pointer(&bias[:w][0])
	}
	po, pa, pp := unsafe.Pointer(&o[0]), unsafe.Pointer(&a[0]), unsafe.Pointer(&panels[0])
	switch {
	case fp.Is32[T]() && np == 2:
		gemmTile2x8F32((*float32)(po), n, (*float32)(pa), (*float32)(pp), k, (*float32)(bp), relu)
	case fp.Is32[T]():
		gemmTile2x4F32((*float32)(po), n, (*float32)(pa), (*float32)(pp), k, (*float32)(bp), relu)
	case np == 2:
		gemmTile4x8F64((*float64)(po), n, (*float64)(pa), (*float64)(pp), k, (*float64)(bp), relu)
	default:
		gemmTile4x4F64((*float64)(po), n, (*float64)(pa), (*float64)(pp), k, (*float64)(bp), relu)
	}
}

// addBiasRow is the GEMM epilogue on one finished output row segment:
// the arithmetic of addBiasBody, or of addBiasReLUBody when relu is
// set, in place.
func addBiasRow[T fp.Float](o, bias []T, relu bool) {
	if !relu {
		for j, v := range o {
			o[j] = v + bias[j]
		}
		return
	}
	for j, v := range o {
		if s := v + bias[j]; s > 0 {
			o[j] = s
		} else {
			o[j] = 0
		}
	}
}

// storeCols writes the first len(o) of four accumulated columns.
func storeCols[T fp.Float](o []T, c0, c1, c2, c3 T) {
	switch len(o) {
	case 4:
		o[0], o[1], o[2], o[3] = c0, c1, c2, c3
	case 3:
		o[0], o[1], o[2] = c0, c1, c2
	case 2:
		o[0], o[1] = c0, c1
	case 1:
		o[0] = c0
	}
}

// microGEMM4 accumulates a 4×4 output block in registers: rows a0..a3
// against one packed panel, k ascending in quads with the file
// comment's association and zero-skip, then stores each row once.
func microGEMM4[T fp.Float](o0, o1, o2, o3, a0, a1, a2, a3, panel []T) {
	k := len(a0)
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	var c20, c21, c22, c23 T
	var c30, c31, c32, c33 T
	p := 0
	for ; p+4 <= k; p += 4 {
		b := panel[p*4 : p*4+16]
		if x0, x1, x2, x3 := a0[p], a0[p+1], a0[p+2], a0[p+3]; x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c00 += x0*b[0] + x1*b[4] + x2*b[8] + x3*b[12]
			c01 += x0*b[1] + x1*b[5] + x2*b[9] + x3*b[13]
			c02 += x0*b[2] + x1*b[6] + x2*b[10] + x3*b[14]
			c03 += x0*b[3] + x1*b[7] + x2*b[11] + x3*b[15]
		}
		if x0, x1, x2, x3 := a1[p], a1[p+1], a1[p+2], a1[p+3]; x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c10 += x0*b[0] + x1*b[4] + x2*b[8] + x3*b[12]
			c11 += x0*b[1] + x1*b[5] + x2*b[9] + x3*b[13]
			c12 += x0*b[2] + x1*b[6] + x2*b[10] + x3*b[14]
			c13 += x0*b[3] + x1*b[7] + x2*b[11] + x3*b[15]
		}
		if x0, x1, x2, x3 := a2[p], a2[p+1], a2[p+2], a2[p+3]; x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c20 += x0*b[0] + x1*b[4] + x2*b[8] + x3*b[12]
			c21 += x0*b[1] + x1*b[5] + x2*b[9] + x3*b[13]
			c22 += x0*b[2] + x1*b[6] + x2*b[10] + x3*b[14]
			c23 += x0*b[3] + x1*b[7] + x2*b[11] + x3*b[15]
		}
		if x0, x1, x2, x3 := a3[p], a3[p+1], a3[p+2], a3[p+3]; x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c30 += x0*b[0] + x1*b[4] + x2*b[8] + x3*b[12]
			c31 += x0*b[1] + x1*b[5] + x2*b[9] + x3*b[13]
			c32 += x0*b[2] + x1*b[6] + x2*b[10] + x3*b[14]
			c33 += x0*b[3] + x1*b[7] + x2*b[11] + x3*b[15]
		}
	}
	for ; p < k; p++ {
		b := panel[p*4 : p*4+4]
		if v := a0[p]; v != 0 {
			c00 += v * b[0]
			c01 += v * b[1]
			c02 += v * b[2]
			c03 += v * b[3]
		}
		if v := a1[p]; v != 0 {
			c10 += v * b[0]
			c11 += v * b[1]
			c12 += v * b[2]
			c13 += v * b[3]
		}
		if v := a2[p]; v != 0 {
			c20 += v * b[0]
			c21 += v * b[1]
			c22 += v * b[2]
			c23 += v * b[3]
		}
		if v := a3[p]; v != 0 {
			c30 += v * b[0]
			c31 += v * b[1]
			c32 += v * b[2]
			c33 += v * b[3]
		}
	}
	storeCols(o0, c00, c01, c02, c03)
	storeCols(o1, c10, c11, c12, c13)
	storeCols(o2, c20, c21, c22, c23)
	storeCols(o3, c30, c31, c32, c33)
}

// microGEMM2 is microGEMM4 at height 2.
func microGEMM2[T fp.Float](o0, o1, a0, a1, panel []T) {
	k := len(a0)
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	p := 0
	for ; p+4 <= k; p += 4 {
		b := panel[p*4 : p*4+16]
		if x0, x1, x2, x3 := a0[p], a0[p+1], a0[p+2], a0[p+3]; x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c00 += x0*b[0] + x1*b[4] + x2*b[8] + x3*b[12]
			c01 += x0*b[1] + x1*b[5] + x2*b[9] + x3*b[13]
			c02 += x0*b[2] + x1*b[6] + x2*b[10] + x3*b[14]
			c03 += x0*b[3] + x1*b[7] + x2*b[11] + x3*b[15]
		}
		if x0, x1, x2, x3 := a1[p], a1[p+1], a1[p+2], a1[p+3]; x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c10 += x0*b[0] + x1*b[4] + x2*b[8] + x3*b[12]
			c11 += x0*b[1] + x1*b[5] + x2*b[9] + x3*b[13]
			c12 += x0*b[2] + x1*b[6] + x2*b[10] + x3*b[14]
			c13 += x0*b[3] + x1*b[7] + x2*b[11] + x3*b[15]
		}
	}
	for ; p < k; p++ {
		b := panel[p*4 : p*4+4]
		if v := a0[p]; v != 0 {
			c00 += v * b[0]
			c01 += v * b[1]
			c02 += v * b[2]
			c03 += v * b[3]
		}
		if v := a1[p]; v != 0 {
			c10 += v * b[0]
			c11 += v * b[1]
			c12 += v * b[2]
			c13 += v * b[3]
		}
	}
	storeCols(o0, c00, c01, c02, c03)
	storeCols(o1, c10, c11, c12, c13)
}

// microGEMM1 is microGEMM4 at height 1 — also the remainder-row kernel.
func microGEMM1[T fp.Float](o0, a0, panel []T) {
	k := len(a0)
	var c00, c01, c02, c03 T
	p := 0
	for ; p+4 <= k; p += 4 {
		b := panel[p*4 : p*4+16]
		if x0, x1, x2, x3 := a0[p], a0[p+1], a0[p+2], a0[p+3]; x0 != 0 || x1 != 0 || x2 != 0 || x3 != 0 {
			c00 += x0*b[0] + x1*b[4] + x2*b[8] + x3*b[12]
			c01 += x0*b[1] + x1*b[5] + x2*b[9] + x3*b[13]
			c02 += x0*b[2] + x1*b[6] + x2*b[10] + x3*b[14]
			c03 += x0*b[3] + x1*b[7] + x2*b[11] + x3*b[15]
		}
	}
	for ; p < k; p++ {
		b := panel[p*4 : p*4+4]
		if v := a0[p]; v != 0 {
			c00 += v * b[0]
			c01 += v * b[1]
			c02 += v * b[2]
			c03 += v * b[3]
		}
	}
	storeCols(o0, c00, c01, c02, c03)
}
