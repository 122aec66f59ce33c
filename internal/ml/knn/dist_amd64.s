#include "textflag.h"

// Every bit but the sign: VANDPD with it is math.Abs.
DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// TERM adds the term of x[f] (broadcast in Y2) and the block row at addr to
// the four sums in acc, using tmp: acc + |x − a|.
#define TERM(addr, tmp, acc) \
	VSUBPD addr, Y2, tmp; \
	VANDPD Y15, tmp, tmp; \
	VADDPD tmp, acc, acc

// func distAVX(dst, x, blk []float64)
//
// Two blocks at a time, on the sums Y0 and Y1, so that one block's add
// waits out the other's latency. Y15 holds the abs mask, DI walks dst, BX
// the blocks, CX counts the pairs left and R11 is a block's size in bytes
// (32·len(x)). No block is given up: every sum is full.
TEXT ·distAVX(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	SHRQ         $3, CX
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), DX
	MOVQ         blk_base+48(FP), BX
	MOVQ         DX, R11
	SHLQ         $5, R11
	VBROADCASTSD absmask<>(SB), Y15

pairs:
	TESTQ  CX, CX
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R8
	MOVQ   BX, R9
	LEAQ   (BX)(R11*1), R10
	MOVQ   DX, R12

feature:
	VBROADCASTSD (R8), Y2
	TERM((R9), Y3, Y0)
	TERM((R10), Y4, Y1)
	ADDQ         $8, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	DECQ         R12
	JNZ          feature
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         $64, DI
	MOVQ         R10, BX // the block after the pair
	DECQ         CX
	JMP          pairs

done:
	VZEROUPPER
	RET
