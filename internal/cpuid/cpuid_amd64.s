#include "textflag.h"

// func AVX() bool
TEXT ·AVX(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL  CX, $0x18000000
	JNE   noavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX          // XMM and YMM state enabled in XCR0
	CMPL  AX, $6
	JNE   noavx
	MOVB  $1, ret+0(FP)

noavx:
	RET
