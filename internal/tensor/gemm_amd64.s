#include "textflag.h"

// AVX tile kernels for gemmBody. Each vector lane is one output column
// doing microGEMM4 / microGEMM2's scalar arithmetic, per quad
// t = a0·B0; t = t + a1·B1; t = t + a2·B2; t = t + a3·B3; c = c + t,
// then per tail element c = c + a·B; tiled.go's file comment states the
// contract and why the operand order below (a first in a multiply, the
// accumulator first in an add, +0 second in the ReLU max) matters.
// In Go's operand order the middle operand of a three-operand
// instruction is its first source. Zero tests use predicate 4, NEQ_UQ:
// NaN is nonzero and -0 is zero.

// F64QUAD adds one quad of row ap into acc against the panel quad in
// Y4..Y7, unless the row's four a values all equal zero. Y8 holds +0;
// Y9, Y10, Y11 and AX are clobbered.
#define F64QUAD(ap, acc, skip) \
	VCMPPD       $4, (ap), Y8, Y9; \
	VMOVMSKPD    Y9, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VBROADCASTSD 0(ap), Y10; \
	VMULPD       Y4, Y10, Y10; \
	VBROADCASTSD 8(ap), Y11; \
	VMULPD       Y5, Y11, Y11; \
	VADDPD       Y11, Y10, Y10; \
	VBROADCASTSD 16(ap), Y11; \
	VMULPD       Y6, Y11, Y11; \
	VADDPD       Y11, Y10, Y10; \
	VBROADCASTSD 24(ap), Y11; \
	VMULPD       Y7, Y11, Y11; \
	VADDPD       Y11, Y10, Y10; \
	VADDPD       Y10, acc, acc

// F64TAIL adds a[0]·B into acc against the panel row in Y4, unless
// a[0] == 0. Y8 holds +0; Y9, Y10 and AX are clobbered.
#define F64TAIL(ap, acc, skip) \
	VBROADCASTSD 0(ap), Y9; \
	VCMPPD       $4, Y8, Y9, Y10; \
	VMOVMSKPD    Y10, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VMULPD       Y4, Y9, Y9; \
	VADDPD       Y9, acc, acc

// func gemmTile4x4F64(o *float64, n int, a *float64, panel *float64, k int, bias *float64, relu bool)
TEXT ·gemmTile4x4F64(SB), NOSPLIT, $0-49
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), DX
	SHLQ $3, DX
	MOVQ a+16(FP), SI
	MOVQ panel+24(FP), BX
	MOVQ k+32(FP), CX
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y8, Y8, Y8

	MOVQ CX, R11
	SHRQ $2, R11
	JZ   f64tail

f64quad:
	VMOVUPD 0(BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD 64(BX), Y6
	VMOVUPD 96(BX), Y7

	F64QUAD(SI, Y0, f64q1)

f64q1:
	F64QUAD(R8, Y1, f64q2)

f64q2:
	F64QUAD(R9, Y2, f64q3)

f64q3:
	F64QUAD(R10, Y3, f64qnext)

f64qnext:
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $128, BX
	DECQ R11
	JNZ  f64quad

f64tail:
	ANDQ $3, CX
	JZ   f64store

f64tailloop:
	VMOVUPD 0(BX), Y4
	F64TAIL(SI, Y0, f64t1)

f64t1:
	F64TAIL(R8, Y1, f64t2)

f64t2:
	F64TAIL(R9, Y2, f64t3)

f64t3:
	F64TAIL(R10, Y3, f64tnext)

f64tnext:
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $32, BX
	DECQ CX
	JNZ  f64tailloop

f64store:
	// Epilogue: c = c + bias, then max(c, +0), which is +0 for NaN,
	// -0 and every c <= 0, as addBiasRow's s > 0 test gives.
	MOVQ  bias+40(FP), AX
	TESTQ AX, AX
	JZ    f64out
	VMOVUPD (AX), Y9
	VADDPD  Y9, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y9, Y2, Y2
	VADDPD  Y9, Y3, Y3
	CMPB    relu+48(FP), $0
	JEQ     f64out
	VMAXPD  Y8, Y0, Y0
	VMAXPD  Y8, Y1, Y1
	VMAXPD  Y8, Y2, Y2
	VMAXPD  Y8, Y3, Y3

f64out:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(DX*1)
	LEAQ    (DI)(DX*2), DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, (DI)(DX*1)
	VZEROUPPER
	RET

// F32QUAD is F64QUAD at float32 width: one XMM of four columns.
#define F32QUAD(ap, acc, skip) \
	VCMPPS       $4, (ap), X8, X9; \
	VMOVMSKPS    X9, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VBROADCASTSS 0(ap), X10; \
	VMULPS       X4, X10, X10; \
	VBROADCASTSS 4(ap), X11; \
	VMULPS       X5, X11, X11; \
	VADDPS       X11, X10, X10; \
	VBROADCASTSS 8(ap), X11; \
	VMULPS       X6, X11, X11; \
	VADDPS       X11, X10, X10; \
	VBROADCASTSS 12(ap), X11; \
	VMULPS       X7, X11, X11; \
	VADDPS       X11, X10, X10; \
	VADDPS       X10, acc, acc

// F32TAIL is F64TAIL at float32 width.
#define F32TAIL(ap, acc, skip) \
	VBROADCASTSS 0(ap), X9; \
	VCMPPS       $4, X8, X9, X10; \
	VMOVMSKPS    X10, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VMULPS       X4, X9, X9; \
	VADDPS       X9, acc, acc

// func gemmTile2x4F32(o *float32, n int, a *float32, panel *float32, k int, bias *float32, relu bool)
TEXT ·gemmTile2x4F32(SB), NOSPLIT, $0-49
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), DX
	SHLQ $2, DX
	MOVQ a+16(FP), SI
	MOVQ panel+24(FP), BX
	MOVQ k+32(FP), CX
	LEAQ (SI)(CX*4), R8

	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X8, X8, X8

	MOVQ CX, R11
	SHRQ $2, R11
	JZ   f32tail

f32quad:
	VMOVUPS 0(BX), X4
	VMOVUPS 16(BX), X5
	VMOVUPS 32(BX), X6
	VMOVUPS 48(BX), X7

	F32QUAD(SI, X0, f32q1)

f32q1:
	F32QUAD(R8, X1, f32qnext)

f32qnext:
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $64, BX
	DECQ R11
	JNZ  f32quad

f32tail:
	ANDQ $3, CX
	JZ   f32store

f32tailloop:
	VMOVUPS 0(BX), X4
	F32TAIL(SI, X0, f32t1)

f32t1:
	F32TAIL(R8, X1, f32tnext)

f32tnext:
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $16, BX
	DECQ CX
	JNZ  f32tailloop

f32store:
	MOVQ  bias+40(FP), AX
	TESTQ AX, AX
	JZ    f32out
	VMOVUPS (AX), X9
	VADDPS  X9, X0, X0
	VADDPS  X9, X1, X1
	CMPB    relu+48(FP), $0
	JEQ     f32out
	VMAXPS  X8, X0, X0
	VMAXPS  X8, X1, X1

f32out:
	VMOVUPS X0, (DI)
	VMOVUPS X1, (DI)(DX*1)
	VZEROUPPER
	RET

// Backward tiles. Each lane again does the scalar arithmetic of the Go
// body it replaces, with separate multiplies and adds, the a value first
// in a multiply and the accumulator first in an add; ops.go states the
// two contracts.

// MTQUAD adds one quad of rows a0 (Y8) and a1 (Y9) times the quad of b
// row bp into the row-0 accumulator acc0 and the row-1 accumulator
// acc1. Y10, Y11 and Y12 are clobbered.
#define MTQUAD(bp, acc0, acc1) \
	VMOVUPD (bp), Y10; \
	VMULPD  Y10, Y8, Y11; \
	VADDPD  Y11, acc0, acc0; \
	VMULPD  Y10, Y9, Y12; \
	VADDPD  Y12, acc1, acc1

// MTREDUCE stores ((s0+s1)+s2)+s3 of the four accumulators c0..c3, whose
// lanes are the stride sums s0..s3 of four outputs, to the four
// consecutive outputs at dst: a 4×4 transpose puts each si in one
// register, so one add per term finishes all four sums. Y8..Y15 are
// clobbered.
#define MTREDUCE(c0, c1, c2, c3, dst) \
	VUNPCKLPD  c1, c0, Y8; \
	VUNPCKHPD  c1, c0, Y9; \
	VUNPCKLPD  c3, c2, Y10; \
	VUNPCKHPD  c3, c2, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15; \
	VADDPD     Y13, Y12, Y12; \
	VADDPD     Y14, Y12, Y12; \
	VADDPD     Y15, Y12, Y12; \
	VMOVUPD    Y12, dst

// func matMulTTiles2x4F64(o *float64, n int, a *float64, b *float64, k int, tiles int)
TEXT ·matMulTTiles2x4F64(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), DX
	SHLQ $3, DX
	MOVQ a+16(FP), R12
	MOVQ b+24(FP), BX
	MOVQ k+32(FP), R13
	SHLQ $3, R13
	MOVQ tiles+40(FP), AX

mttile:
	// One 2×4 tile: rows a0 (SI) and a1 (R8) against b rows BX, R9,
	// R10 and R11, k &^ 3 elements each.
	MOVQ R12, SI
	LEAQ (SI)(R13*1), R8
	LEAQ (BX)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	MOVQ k+32(FP), CX
	SHRQ $2, CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

mtquad:
	VMOVUPD (SI), Y8
	VMOVUPD (R8), Y9
	MTQUAD(BX, Y0, Y4)
	MTQUAD(R9, Y1, Y5)
	MTQUAD(R10, Y2, Y6)
	MTQUAD(R11, Y3, Y7)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, BX
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  mtquad

	MTREDUCE(Y0, Y1, Y2, Y3, (DI))
	MTREDUCE(Y4, Y5, Y6, Y7, (DI)(DX*1))

	// The next tile's b rows start 4k elements after this tile's: BX
	// and SI advanced alike, so BX - SI + R12 is this tile's start.
	SUBQ SI, BX
	ADDQ R12, BX
	LEAQ (BX)(R13*4), BX
	ADDQ $32, DI
	DECQ AX
	JNZ  mttile
	VZEROUPPER
	RET

// TMROW adds a·B into the four accumulators acc0..acc3 for the a value
// at ap against the 16 b values in Y8..Y11, with each product masked to
// +0 when a == 0 (predicate 4, NEQ_UQ: NaN is nonzero and -0 is zero).
// An accumulator that starts at +0 is never -0, so adding +0 leaves
// every bit of it as skipping the term would; ops.go has the argument.
// The mask replaces a branch that rectified activations mispredict.
// Y15 holds +0; Y12, Y13 and Y14 are clobbered.
#define TMROW(ap, acc0, acc1, acc2, acc3) \
	VBROADCASTSD ap, Y12; \
	VCMPPD       $4, Y15, Y12, Y14; \
	VMULPD       Y8, Y12, Y13; \
	VANDPD       Y14, Y13, Y13; \
	VADDPD       Y13, acc0, acc0; \
	VMULPD       Y9, Y12, Y13; \
	VANDPD       Y14, Y13, Y13; \
	VADDPD       Y13, acc1, acc1; \
	VMULPD       Y10, Y12, Y13; \
	VANDPD       Y14, Y13, Y13; \
	VADDPD       Y13, acc2, acc2; \
	VMULPD       Y11, Y12, Y13; \
	VANDPD       Y14, Y13, Y13; \
	VADDPD       Y13, acc3, acc3

// func tMatMulTile2x16F64(o *float64, n int, a *float64, lda int, b *float64, p int)
TEXT ·tMatMulTile2x16F64(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), DX
	SHLQ $3, DX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $3, R8
	MOVQ b+32(FP), BX
	MOVQ p+40(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y15, Y15, Y15

tmrow:
	VMOVUPD 0(BX), Y8
	VMOVUPD 32(BX), Y9
	VMOVUPD 64(BX), Y10
	VMOVUPD 96(BX), Y11
	TMROW(0(SI), Y0, Y1, Y2, Y3)
	TMROW(8(SI), Y4, Y5, Y6, Y7)
	ADDQ R8, SI
	ADDQ DX, BX
	DECQ CX
	JNZ  tmrow

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    DX, DI
	VMOVUPD Y4, 0(DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VZEROUPPER
	RET

// func cpuHasAVX() bool
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0
// must show the OS saving XMM (bit 1) and YMM (bit 2) state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

