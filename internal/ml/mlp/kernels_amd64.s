#include "textflag.h"

// The AVX kernels of kernels_amd64.go. In gemvAVX and outerAVX, X10 holds
// +0 for the zero tests, R10 the skipZero flag and R11 a row stride in
// bytes. Every kernel ends with VZEROUPPER.

// SKIPIFZERO goes on to add when skipZero is clear or X8's low lane is not
// ±0 (a NaN compares unordered and is added), and to skip otherwise.
#define SKIPIFZERO(add, skip) \
	TESTQ    R10, R10; \
	JZ       add; \
	VUCOMISD X10, X8; \
	JNE      add; \
	JP       add; \
	JMP      skip

// func gemvAVX(dst, a, x []float64, skipZero bool)
//
// dst[j] += Σ_i x[i]·a[i·n+j] in ascending i, n = len(dst): 32 columns at a
// time on eight accumulators held across the rows, then 4, then 1.
TEXT ·gemvAVX(SB), NOSPLIT, $0-73
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), DX
	MOVQ    a_base+24(FP), SI
	MOVQ    x_base+48(FP), R8
	MOVQ    x_len+56(FP), R9
	MOVBQZX skipZero+72(FP), R10
	MOVQ    DX, R11
	SHLQ    $3, R11
	VXORPD  X10, X10, X10

cols32:
	CMPQ    DX, $32
	JLT     cols4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ    SI, AX
	MOVQ    R8, BX
	MOVQ    R9, CX

rows32:
	TESTQ        CX, CX
	JZ           store32
	VBROADCASTSD (BX), Y8
	SKIPIFZERO(add32, next32)

add32:
	VMULPD 0(AX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(AX), Y8, Y9
	VADDPD Y9, Y1, Y1
	VMULPD 64(AX), Y8, Y9
	VADDPD Y9, Y2, Y2
	VMULPD 96(AX), Y8, Y9
	VADDPD Y9, Y3, Y3
	VMULPD 128(AX), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(AX), Y8, Y9
	VADDPD Y9, Y5, Y5
	VMULPD 192(AX), Y8, Y9
	VADDPD Y9, Y6, Y6
	VMULPD 224(AX), Y8, Y9
	VADDPD Y9, Y7, Y7

next32:
	ADDQ R11, AX
	ADDQ $8, BX
	DECQ CX
	JMP  rows32

store32:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, DX
	JMP     cols32

cols4:
	CMPQ    DX, $4
	JLT     cols1
	VMOVUPD (DI), Y0
	MOVQ    SI, AX
	MOVQ    R8, BX
	MOVQ    R9, CX

rows4:
	TESTQ        CX, CX
	JZ           store4
	VBROADCASTSD (BX), Y8
	SKIPIFZERO(add4, next4)

add4:
	VMULPD (AX), Y8, Y9
	VADDPD Y9, Y0, Y0

next4:
	ADDQ R11, AX
	ADDQ $8, BX
	DECQ CX
	JMP  rows4

store4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, DX
	JMP     cols4

cols1:
	TESTQ  DX, DX
	JZ     gemvdone
	VMOVSD (DI), X0
	MOVQ   SI, AX
	MOVQ   R8, BX
	MOVQ   R9, CX

rows1:
	TESTQ  CX, CX
	JZ     store1
	VMOVSD (BX), X8
	SKIPIFZERO(add1, next1)

add1:
	VMULSD (AX), X8, X9
	VADDSD X9, X0, X0

next1:
	ADDQ R11, AX
	ADDQ $8, BX
	DECQ CX
	JMP  rows1

store1:
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   DX
	JMP    cols1

gemvdone:
	VZEROUPPER
	RET

// func outerAVX(g, d, x []float64, skipZero bool)
//
// g[j·n+i] += d[j]·x[i], n = len(x): one row of g per d[j], 16, then 4,
// then 1 element at a time.
TEXT ·outerAVX(SB), NOSPLIT, $0-73
	MOVQ    g_base+0(FP), DI
	MOVQ    d_base+24(FP), SI
	MOVQ    d_len+32(FP), DX
	MOVQ    x_base+48(FP), R8
	MOVQ    x_len+56(FP), R9
	MOVBQZX skipZero+72(FP), R10
	MOVQ    R9, R11
	SHLQ    $3, R11
	VXORPD  X10, X10, X10

row:
	TESTQ        DX, DX
	JZ           outerdone
	VBROADCASTSD (SI), Y8
	SKIPIFZERO(addrow, nextrow)

addrow:
	MOVQ DI, AX
	MOVQ R8, BX
	MOVQ R9, CX

elems16:
	CMPQ    CX, $16
	JLT     elems4
	VMULPD  0(BX), Y8, Y0
	VADDPD  0(AX), Y0, Y0
	VMOVUPD Y0, 0(AX)
	VMULPD  32(BX), Y8, Y1
	VADDPD  32(AX), Y1, Y1
	VMOVUPD Y1, 32(AX)
	VMULPD  64(BX), Y8, Y2
	VADDPD  64(AX), Y2, Y2
	VMOVUPD Y2, 64(AX)
	VMULPD  96(BX), Y8, Y3
	VADDPD  96(AX), Y3, Y3
	VMOVUPD Y3, 96(AX)
	ADDQ    $128, AX
	ADDQ    $128, BX
	SUBQ    $16, CX
	JMP     elems16

elems4:
	CMPQ    CX, $4
	JLT     elems1
	VMULPD  (BX), Y8, Y0
	VADDPD  (AX), Y0, Y0
	VMOVUPD Y0, (AX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     elems4

elems1:
	TESTQ  CX, CX
	JZ     nextrow
	VMULSD (BX), X8, X0
	VADDSD (AX), X0, X0
	VMOVSD X0, (AX)
	ADDQ   $8, AX
	ADDQ   $8, BX
	DECQ   CX
	JMP    elems1

nextrow:
	ADDQ R11, DI
	ADDQ $8, SI
	DECQ DX
	JMP  row

outerdone:
	VZEROUPPER
	RET

// func adamAVX(w, g, m1, v1 []float64, s *adamStep)
//
// adamGo's loop, four weights at a time; len(w) is a multiple of 4.
TEXT ·adamAVX(SB), NOSPLIT, $0-104
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m1_base+48(FP), R8
	MOVQ         v1_base+72(FP), R9
	MOVQ         s+96(FP), AX
	VBROADCASTSD 0(AX), Y5   // bs
	VBROADCASTSD 8(AX), Y6   // l2
	VBROADCASTSD 16(AX), Y7  // beta1
	VBROADCASTSD 24(AX), Y8  // 1−beta1
	VBROADCASTSD 32(AX), Y9  // beta2
	VBROADCASTSD 40(AX), Y10 // 1−beta2
	VBROADCASTSD 48(AX), Y11 // lr
	VBROADCASTSD 56(AX), Y12 // corr1
	VBROADCASTSD 64(AX), Y13 // corr2
	VBROADCASTSD 72(AX), Y14 // eps
	SHRQ         $2, CX

step4:
	TESTQ   CX, CX
	JZ      adamdone
	VMOVUPD (SI), Y0
	VDIVPD  Y5, Y0, Y0   // g/bs
	VMOVUPD (DI), Y1     // w
	VMULPD  Y1, Y6, Y2   // l2·w
	VADDPD  Y2, Y0, Y0   // gi
	VMULPD  (R8), Y7, Y2 // beta1·m1
	VMULPD  Y0, Y8, Y3   // (1−beta1)·gi
	VADDPD  Y3, Y2, Y2   // m1
	VMOVUPD Y2, (R8)
	VMULPD  (R9), Y9, Y3 // beta2·v1
	VMULPD  Y0, Y10, Y4  // (1−beta2)·gi
	VMULPD  Y0, Y4, Y4   // ·gi
	VADDPD  Y4, Y3, Y3   // v1
	VMOVUPD Y3, (R9)
	VDIVPD  Y12, Y2, Y2  // m1/corr1
	VMULPD  Y2, Y11, Y2  // lr·(m1/corr1)
	VDIVPD  Y13, Y3, Y3  // v1/corr2
	VSQRTPD Y3, Y3
	VADDPD  Y14, Y3, Y3  // + eps
	VDIVPD  Y3, Y2, Y2
	VSUBPD  Y2, Y1, Y1   // w − lr·(m1/corr1)/(√(v1/corr2) + eps)
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JMP     step4

adamdone:
	VZEROUPPER
	RET
