//go:build !purego

#include "textflag.h"

// func hasAVX2() bool
//
// CPUID.1:ECX bits 12 (FMA), 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1 and 2
// (the OS saves XMM and YMM state across context switches), CPUID.7.0:EBX
// bit 5 (AVX2). The FMA and YMM bits are the ones math reads for its own
// FMA path (internal/cpu's HasAVX and HasFMA).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18001000, CX
	CMPL   CX, $0x18001000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	TESTL  $0x20, BX
	JZ     no
	MOVB   $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func hasAVX512() bool
//
// CPUID.1:ECX bit 27 (OSXSAVE), XCR0 bits 1, 2 and 5–7 (the OS saves XMM,
// YMM, opmask and all 32 ZMM registers across context switches),
// CPUID.7.0:EBX bit 16 (AVX512F). The tiles' AVX-512 bodies use nothing
// beyond AVX512F.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	TESTL  $0x08000000, CX
	JZ     no
	XORL   CX, CX
	XGETBV
	ANDL   $0xe6, AX
	CMPL   AX, $0xe6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	TESTL  $0x10000, BX
	JZ     no
	MOVB   $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
