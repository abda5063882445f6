#include "textflag.h"

// AVX tile kernels for gemmBody: four output rows against one packed
// panel (4×4 at float64, 4×8 at float32) and against two adjacent ones
// (4×8, 4×16). A panel row is 32 bytes, one YMM register, at either
// precision, so the float32 tiles read the panels at the float64 tiles'
// offsets and differ only in A's element stride. Each vector lane is one
// output column doing microGEMM4's scalar arithmetic, per quad
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

// F64QUAD2 is F64QUAD against two panels at once: the quad's zero test,
// branch and four broadcasts are done once, and each broadcast a value
// multiplies the panel rows at BX (into acc0) and at R12 (into acc1),
// read as memory operands. Each lane's sequence is F64QUAD's. Y8 holds
// +0; Y9, Y12..Y15 and AX are clobbered.
#define F64QUAD2(ap, acc0, acc1, skip) \
	VCMPPD       $4, (ap), Y8, Y9; \
	VMOVMSKPD    Y9, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VBROADCASTSD 0(ap), Y12; \
	VMULPD       0(BX), Y12, Y13; \
	VMULPD       0(R12), Y12, Y14; \
	VBROADCASTSD 8(ap), Y12; \
	VMULPD       32(BX), Y12, Y15; \
	VADDPD       Y15, Y13, Y13; \
	VMULPD       32(R12), Y12, Y15; \
	VADDPD       Y15, Y14, Y14; \
	VBROADCASTSD 16(ap), Y12; \
	VMULPD       64(BX), Y12, Y15; \
	VADDPD       Y15, Y13, Y13; \
	VMULPD       64(R12), Y12, Y15; \
	VADDPD       Y15, Y14, Y14; \
	VBROADCASTSD 24(ap), Y12; \
	VMULPD       96(BX), Y12, Y15; \
	VADDPD       Y15, Y13, Y13; \
	VMULPD       96(R12), Y12, Y15; \
	VADDPD       Y15, Y14, Y14; \
	VADDPD       Y13, acc0, acc0; \
	VADDPD       Y14, acc1, acc1

// F64TAIL2 is F64TAIL against the panel rows at BX (into acc0) and at
// R12 (into acc1). Y8 holds +0; Y9, Y10, Y11 and AX are clobbered.
#define F64TAIL2(ap, acc0, acc1, skip) \
	VBROADCASTSD 0(ap), Y9; \
	VCMPPD       $4, Y8, Y9, Y10; \
	VMOVMSKPD    Y10, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VMULPD       0(BX), Y9, Y10; \
	VADDPD       Y10, acc0, acc0; \
	VMULPD       0(R12), Y9, Y11; \
	VADDPD       Y11, acc1, acc1

// func gemmTile4x8F64(o *float64, n int, a *float64, panel *float64, k int, bias *float64, relu bool)
// Two adjacent panels: the second starts 4k elements after the first.
// Y0..Y3 accumulate rows 0..3 of the first panel's columns, Y4..Y7 the
// same rows of the second's.
TEXT ·gemmTile4x8F64(SB), NOSPLIT, $0-49
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), DX
	SHLQ $3, DX
	MOVQ a+16(FP), SI
	MOVQ panel+24(FP), BX
	MOVQ k+32(FP), CX
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	MOVQ CX, R12
	SHLQ $5, R12
	ADDQ BX, R12

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8

	MOVQ CX, R11
	SHRQ $2, R11
	JZ   w64tail

w64quad:
	F64QUAD2(SI, Y0, Y4, w64q1)

w64q1:
	F64QUAD2(R8, Y1, Y5, w64q2)

w64q2:
	F64QUAD2(R9, Y2, Y6, w64q3)

w64q3:
	F64QUAD2(R10, Y3, Y7, w64qnext)

w64qnext:
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $128, BX
	ADDQ $128, R12
	DECQ R11
	JNZ  w64quad

w64tail:
	ANDQ $3, CX
	JZ   w64store

w64tailloop:
	F64TAIL2(SI, Y0, Y4, w64t1)

w64t1:
	F64TAIL2(R8, Y1, Y5, w64t2)

w64t2:
	F64TAIL2(R9, Y2, Y6, w64t3)

w64t3:
	F64TAIL2(R10, Y3, Y7, w64tnext)

w64tnext:
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $32, BX
	ADDQ $32, R12
	DECQ CX
	JNZ  w64tailloop

w64store:
	// gemmTile4x4F64's epilogue, bias[0:4] on the first panel's
	// columns and bias[4:8] on the second's.
	MOVQ  bias+40(FP), AX
	TESTQ AX, AX
	JZ    w64out
	VMOVUPD (AX), Y9
	VMOVUPD 32(AX), Y10
	VADDPD  Y9, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y9, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VADDPD  Y10, Y4, Y4
	VADDPD  Y10, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y10, Y7, Y7
	CMPB    relu+48(FP), $0
	JEQ     w64out
	VMAXPD  Y8, Y0, Y0
	VMAXPD  Y8, Y1, Y1
	VMAXPD  Y8, Y2, Y2
	VMAXPD  Y8, Y3, Y3
	VMAXPD  Y8, Y4, Y4
	VMAXPD  Y8, Y5, Y5
	VMAXPD  Y8, Y6, Y6
	VMAXPD  Y8, Y7, Y7

w64out:
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, 32(DI)
	VMOVUPD Y1, (DI)(DX*1)
	VMOVUPD Y5, 32(DI)(DX*1)
	LEAQ    (DI)(DX*2), DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y3, (DI)(DX*1)
	VMOVUPD Y7, 32(DI)(DX*1)
	VZEROUPPER
	RET

// F32X8QUAD is F64QUAD at float32 width: a panel row is eight float32
// columns in one YMM, at F64QUAD's 32-byte offsets, and the zero test
// reads the quad's four a values as one XMM. Y8 holds +0; Y9, Y10, Y11
// and AX are clobbered.
#define F32X8QUAD(ap, acc, skip) \
	VCMPPS       $4, (ap), X8, X9; \
	VMOVMSKPS    X9, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VBROADCASTSS 0(ap), Y10; \
	VMULPS       Y4, Y10, Y10; \
	VBROADCASTSS 4(ap), Y11; \
	VMULPS       Y5, Y11, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VBROADCASTSS 8(ap), Y11; \
	VMULPS       Y6, Y11, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VBROADCASTSS 12(ap), Y11; \
	VMULPS       Y7, Y11, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VADDPS       Y10, acc, acc

// F32X8TAIL is F64TAIL at float32 width. Y8 holds +0; Y9, Y10 and AX
// are clobbered.
#define F32X8TAIL(ap, acc, skip) \
	VBROADCASTSS 0(ap), Y9; \
	VCMPPS       $4, Y8, Y9, Y10; \
	VMOVMSKPS    Y10, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VMULPS       Y4, Y9, Y9; \
	VADDPS       Y9, acc, acc

// func gemmTile4x8F32(o *float32, n int, a *float32, panel *float32, k int, bias *float32, relu bool)
// gemmTile4x4F64 at float32 against one 8-wide panel: only the A and
// output strides change (4-byte elements, 16-byte quads).
TEXT ·gemmTile4x8F32(SB), NOSPLIT, $0-49
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), DX
	SHLQ $2, DX
	MOVQ a+16(FP), SI
	MOVQ panel+24(FP), BX
	MOVQ k+32(FP), CX
	LEAQ (SI)(CX*4), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y8, Y8, Y8

	MOVQ CX, R11
	SHRQ $2, R11
	JZ   f32tail

f32quad:
	VMOVUPS 0(BX), Y4
	VMOVUPS 32(BX), Y5
	VMOVUPS 64(BX), Y6
	VMOVUPS 96(BX), Y7

	F32X8QUAD(SI, Y0, f32q1)

f32q1:
	F32X8QUAD(R8, Y1, f32q2)

f32q2:
	F32X8QUAD(R9, Y2, f32q3)

f32q3:
	F32X8QUAD(R10, Y3, f32qnext)

f32qnext:
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $128, BX
	DECQ R11
	JNZ  f32quad

f32tail:
	ANDQ $3, CX
	JZ   f32store

f32tailloop:
	VMOVUPS 0(BX), Y4
	F32X8TAIL(SI, Y0, f32t1)

f32t1:
	F32X8TAIL(R8, Y1, f32t2)

f32t2:
	F32X8TAIL(R9, Y2, f32t3)

f32t3:
	F32X8TAIL(R10, Y3, f32tnext)

f32tnext:
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $32, BX
	DECQ CX
	JNZ  f32tailloop

f32store:
	// gemmTile4x4F64's epilogue on eight columns.
	MOVQ  bias+40(FP), AX
	TESTQ AX, AX
	JZ    f32out
	VMOVUPS (AX), Y9
	VADDPS  Y9, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y9, Y2, Y2
	VADDPS  Y9, Y3, Y3
	CMPB    relu+48(FP), $0
	JEQ     f32out
	VMAXPS  Y8, Y0, Y0
	VMAXPS  Y8, Y1, Y1
	VMAXPS  Y8, Y2, Y2
	VMAXPS  Y8, Y3, Y3

f32out:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(DX*1)
	LEAQ    (DI)(DX*2), DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, (DI)(DX*1)
	VZEROUPPER
	RET

// F32X8QUAD2 is F64QUAD2 at float32 width, against the 8-wide panel
// rows at BX (into acc0) and R12 (into acc1). Y8 holds +0; Y9,
// Y12..Y15 and AX are clobbered.
#define F32X8QUAD2(ap, acc0, acc1, skip) \
	VCMPPS       $4, (ap), X8, X9; \
	VMOVMSKPS    X9, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VBROADCASTSS 0(ap), Y12; \
	VMULPS       0(BX), Y12, Y13; \
	VMULPS       0(R12), Y12, Y14; \
	VBROADCASTSS 4(ap), Y12; \
	VMULPS       32(BX), Y12, Y15; \
	VADDPS       Y15, Y13, Y13; \
	VMULPS       32(R12), Y12, Y15; \
	VADDPS       Y15, Y14, Y14; \
	VBROADCASTSS 8(ap), Y12; \
	VMULPS       64(BX), Y12, Y15; \
	VADDPS       Y15, Y13, Y13; \
	VMULPS       64(R12), Y12, Y15; \
	VADDPS       Y15, Y14, Y14; \
	VBROADCASTSS 12(ap), Y12; \
	VMULPS       96(BX), Y12, Y15; \
	VADDPS       Y15, Y13, Y13; \
	VMULPS       96(R12), Y12, Y15; \
	VADDPS       Y15, Y14, Y14; \
	VADDPS       Y13, acc0, acc0; \
	VADDPS       Y14, acc1, acc1

// F32X8TAIL2 is F64TAIL2 at float32 width. Y8 holds +0; Y9, Y10, Y11
// and AX are clobbered.
#define F32X8TAIL2(ap, acc0, acc1, skip) \
	VBROADCASTSS 0(ap), Y9; \
	VCMPPS       $4, Y8, Y9, Y10; \
	VMOVMSKPS    Y10, AX; \
	TESTL        AX, AX; \
	JZ           skip; \
	VMULPS       0(BX), Y9, Y10; \
	VADDPS       Y10, acc0, acc0; \
	VMULPS       0(R12), Y9, Y11; \
	VADDPS       Y11, acc1, acc1

// func gemmTile4x16F32(o *float32, n int, a *float32, panel *float32, k int, bias *float32, relu bool)
// gemmTile4x8F64 at float32 against two 8-wide panels: the second
// starts 8k elements (32k bytes, as at float64) after the first. Y0..Y3
// accumulate rows 0..3 of the first panel's columns, Y4..Y7 the same
// rows of the second's.
TEXT ·gemmTile4x16F32(SB), NOSPLIT, $0-49
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), DX
	SHLQ $2, DX
	MOVQ a+16(FP), SI
	MOVQ panel+24(FP), BX
	MOVQ k+32(FP), CX
	LEAQ (SI)(CX*4), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	MOVQ CX, R12
	SHLQ $5, R12
	ADDQ BX, R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8

	MOVQ CX, R11
	SHRQ $2, R11
	JZ   w32tail

w32quad:
	F32X8QUAD2(SI, Y0, Y4, w32q1)

w32q1:
	F32X8QUAD2(R8, Y1, Y5, w32q2)

w32q2:
	F32X8QUAD2(R9, Y2, Y6, w32q3)

w32q3:
	F32X8QUAD2(R10, Y3, Y7, w32qnext)

w32qnext:
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $128, BX
	ADDQ $128, R12
	DECQ R11
	JNZ  w32quad

w32tail:
	ANDQ $3, CX
	JZ   w32store

w32tailloop:
	F32X8TAIL2(SI, Y0, Y4, w32t1)

w32t1:
	F32X8TAIL2(R8, Y1, Y5, w32t2)

w32t2:
	F32X8TAIL2(R9, Y2, Y6, w32t3)

w32t3:
	F32X8TAIL2(R10, Y3, Y7, w32tnext)

w32tnext:
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $32, BX
	ADDQ $32, R12
	DECQ CX
	JNZ  w32tailloop

w32store:
	// gemmTile4x8F64's epilogue, bias[0:8] on the first panel's
	// columns and bias[8:16] on the second's.
	MOVQ  bias+40(FP), AX
	TESTQ AX, AX
	JZ    w32out
	VMOVUPS (AX), Y9
	VMOVUPS 32(AX), Y10
	VADDPS  Y9, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y9, Y2, Y2
	VADDPS  Y9, Y3, Y3
	VADDPS  Y10, Y4, Y4
	VADDPS  Y10, Y5, Y5
	VADDPS  Y10, Y6, Y6
	VADDPS  Y10, Y7, Y7
	CMPB    relu+48(FP), $0
	JEQ     w32out
	VMAXPS  Y8, Y0, Y0
	VMAXPS  Y8, Y1, Y1
	VMAXPS  Y8, Y2, Y2
	VMAXPS  Y8, Y3, Y3
	VMAXPS  Y8, Y4, Y4
	VMAXPS  Y8, Y5, Y5
	VMAXPS  Y8, Y6, Y6
	VMAXPS  Y8, Y7, Y7

w32out:
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, 32(DI)
	VMOVUPS Y1, (DI)(DX*1)
	VMOVUPS Y5, 32(DI)(DX*1)
	LEAQ    (DI)(DX*2), DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y6, 32(DI)
	VMOVUPS Y3, (DI)(DX*1)
	VMOVUPS Y7, 32(DI)(DX*1)
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

