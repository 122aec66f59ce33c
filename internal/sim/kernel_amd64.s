#include "go_asm.h"
#include "textflag.h"

// evalAVX of kernel_amd64.go, threaded: each opcode has a handler h<Op>, and
// each handler ends by jumping, through the table handlers, to the handler of
// the next instruction; kHalt's returns. A handler runs with DI at regs, SI at
// its kinstr, R8 at handlers and Y15 all ones, and uses Y0–Y5 for operands.
// evalAVX and the handlers have no frame, so a profile shows each handler
// by name, called from avxEval.

// ROW loads the row of the slot at field off of the instruction into reg.
#define ROW(off, reg) \
	MOVL    off(SI), AX; \
	SHLQ    $5, AX; \
	VMOVDQU (DI)(AX*1), reg

// PUT stores reg into the destination row and dispatches the next instruction.
#define PUT(reg) \
	MOVL    kinstr_dst(SI), AX; \
	SHLQ    $5, AX; \
	VMOVDQU reg, (DI)(AX*1); \
	ADDQ    $kinstr__size, SI; \
	MOVBLZX kinstr_op(SI), AX; \
	JMP     (R8)(AX*8)

#define AB ROW(kinstr_a, Y0); ROW(kinstr_b, Y1)
#define ABC AB; ROW(kinstr_c, Y2)
#define ABCD ABC; ROW(kinstr_d, Y3)
#define ABCDE ABCD; ROW(kinstr_e, Y4)

// MUX sets x to s ? y : x, as mux in kernel.go: x ^ (x^y)&s. It clobbers y.
#define MUX(x, y, s) VXORPS x, y, y; VANDPS s, y, y; VXORPS y, x, x

#define HANDLER(name) TEXT name(SB), NOSPLIT|NOFRAME, $0

// func evalAVX(regs []krow, code []kinstr)
TEXT ·evalAVX(SB), NOSPLIT, $0-48
	MOVQ    regs_base+0(FP), DI
	MOVQ    code_base+24(FP), SI
	LEAQ    handlers<>(SB), R8
	VCMPPS  $15, Y15, Y15, Y15 // predicate TRUE: all ones
	MOVBLZX kinstr_op(SI), AX
	JMP     (R8)(AX*8)

HANDLER(hInv<>)
	ROW(kinstr_a, Y0); VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hAnd2<>)
	AB; VANDPS Y1, Y0, Y0; PUT(Y0)
HANDLER(hAnd3<>)
	ABC; VANDPS Y1, Y0, Y0; VANDPS Y2, Y0, Y0; PUT(Y0)
HANDLER(hAnd4<>)
	ABCD; VANDPS Y1, Y0, Y0; VANDPS Y3, Y2, Y2; VANDPS Y2, Y0, Y0; PUT(Y0)
HANDLER(hOr2<>)
	AB; VORPS Y1, Y0, Y0; PUT(Y0)
HANDLER(hOr3<>)
	ABC; VORPS Y1, Y0, Y0; VORPS Y2, Y0, Y0; PUT(Y0)
HANDLER(hOr4<>)
	ABCD; VORPS Y1, Y0, Y0; VORPS Y3, Y2, Y2; VORPS Y2, Y0, Y0; PUT(Y0)
HANDLER(hNand2<>)
	AB; VANDPS Y1, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hNand3<>)
	ABC; VANDPS Y1, Y0, Y0; VANDPS Y2, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hNand4<>)
	ABCD; VANDPS Y1, Y0, Y0; VANDPS Y3, Y2, Y2; VANDPS Y2, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hNor2<>)
	AB; VORPS Y1, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hNor3<>)
	ABC; VORPS Y1, Y0, Y0; VORPS Y2, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hNor4<>)
	ABCD; VORPS Y1, Y0, Y0; VORPS Y3, Y2, Y2; VORPS Y2, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hXor2<>)
	AB; VXORPS Y1, Y0, Y0; PUT(Y0)
HANDLER(hXnor2<>)
	AB; VXORPS Y1, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hMux2<>)
	ABC; MUX(Y0, Y1, Y2); PUT(Y0)
HANDLER(hAOI21<>)
	ABC; VANDPS Y1, Y0, Y0; VORPS Y2, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hOAI21<>)
	ABC; VORPS Y1, Y0, Y0; VANDPS Y2, Y0, Y0; VXORPS Y15, Y0, Y0; PUT(Y0)
HANDLER(hAO21<>)
	ABC; VANDPS Y1, Y0, Y0; VORPS Y2, Y0, Y0; PUT(Y0)
HANDLER(hOA21<>)
	ABC; VORPS Y1, Y0, Y0; VANDPS Y2, Y0, Y0; PUT(Y0)
HANDLER(hAndN<>)
	AB; VANDNPS Y0, Y1, Y0; PUT(Y0) // ^b & a
HANDLER(hOrN<>)
	AB; VXORPS Y15, Y1, Y1; VORPS Y1, Y0, Y0; PUT(Y0)
HANDLER(hAO222<>)
	ABCDE; ROW(kinstr_f, Y5)
	VANDPS Y1, Y0, Y0; VANDPS Y3, Y2, Y2; VANDPS Y5, Y4, Y4
	VORPS  Y2, Y0, Y0; VORPS Y4, Y0, Y0; PUT(Y0)
HANDLER(hMuxA<>)
	ABCDE; MUX(Y0, Y1, Y2); MUX(Y0, Y3, Y4); PUT(Y0) // mux(mux(a, b, c), d, e)
HANDLER(hMuxB<>)
	ABCDE; MUX(Y0, Y1, Y2); MUX(Y3, Y0, Y4); PUT(Y3) // mux(d, mux(a, b, c), e)
HANDLER(hXor3<>)
	ABC; VXORPS Y1, Y0, Y0; VXORPS Y2, Y0, Y0; PUT(Y0)
HANDLER(hHalt<>)
	VZEROUPPER
	RET

// handlers is the dispatch table, indexed by kOp.
DATA handlers<>+(const_kInv*8)(SB)/8, $hInv<>(SB)
DATA handlers<>+(const_kAnd2*8)(SB)/8, $hAnd2<>(SB)
DATA handlers<>+(const_kAnd3*8)(SB)/8, $hAnd3<>(SB)
DATA handlers<>+(const_kAnd4*8)(SB)/8, $hAnd4<>(SB)
DATA handlers<>+(const_kOr2*8)(SB)/8, $hOr2<>(SB)
DATA handlers<>+(const_kOr3*8)(SB)/8, $hOr3<>(SB)
DATA handlers<>+(const_kOr4*8)(SB)/8, $hOr4<>(SB)
DATA handlers<>+(const_kNand2*8)(SB)/8, $hNand2<>(SB)
DATA handlers<>+(const_kNand3*8)(SB)/8, $hNand3<>(SB)
DATA handlers<>+(const_kNand4*8)(SB)/8, $hNand4<>(SB)
DATA handlers<>+(const_kNor2*8)(SB)/8, $hNor2<>(SB)
DATA handlers<>+(const_kNor3*8)(SB)/8, $hNor3<>(SB)
DATA handlers<>+(const_kNor4*8)(SB)/8, $hNor4<>(SB)
DATA handlers<>+(const_kXor2*8)(SB)/8, $hXor2<>(SB)
DATA handlers<>+(const_kXnor2*8)(SB)/8, $hXnor2<>(SB)
DATA handlers<>+(const_kMux2*8)(SB)/8, $hMux2<>(SB)
DATA handlers<>+(const_kAOI21*8)(SB)/8, $hAOI21<>(SB)
DATA handlers<>+(const_kOAI21*8)(SB)/8, $hOAI21<>(SB)
DATA handlers<>+(const_kAO21*8)(SB)/8, $hAO21<>(SB)
DATA handlers<>+(const_kOA21*8)(SB)/8, $hOA21<>(SB)
DATA handlers<>+(const_kAndN*8)(SB)/8, $hAndN<>(SB)
DATA handlers<>+(const_kOrN*8)(SB)/8, $hOrN<>(SB)
DATA handlers<>+(const_kAO222*8)(SB)/8, $hAO222<>(SB)
DATA handlers<>+(const_kMuxA*8)(SB)/8, $hMuxA<>(SB)
DATA handlers<>+(const_kMuxB*8)(SB)/8, $hMuxB<>(SB)
DATA handlers<>+(const_kXor3*8)(SB)/8, $hXor3<>(SB)
DATA handlers<>+(const_kHalt*8)(SB)/8, $hHalt<>(SB)
GLOBL handlers<>(SB), RODATA|NOPTR, $((const_kHalt+1)*8)
