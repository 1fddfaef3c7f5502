//go:build !purego

#include "textflag.h"

// AVX2 bodies of AxpyRow for float64 (four lanes) and float32 (eight).
// Every output element receives the IEEE operations of the Go loop: one
// multiply and one add, never a fused multiply-add (Go on amd64 compiles
// d + v*x to MULSD + ADDSD). Operand order follows the plain build of the Go
// loop — x is the first source of the multiply and the product the first
// source of the add. x86 consults it only when two different NaNs meet in
// one instruction, and there the compiled Go loop is not consistent with
// itself (see twoNaNsMeet in axpy_test.go). Loads and stores are unaligned;
// nothing past dst[n-1] or x[n-1] is touched. The callers in axpy_amd64.go
// have checked the lengths and n > 0.
//
// Register use, both routines: DI dst, CX n, AX j, BX loop bound, SI the
// source, Y0 the broadcast scale, Y4/Y5 the running sums, Y6/Y7 products.

// The source into eight, four or one running float64 sums.
#define SRC8D(x, v) \
	VMOVUPD (x)(AX*8), Y6; \
	VMOVUPD 32(x)(AX*8), Y7; \
	VMULPD  v, Y6, Y6; \
	VMULPD  v, Y7, Y7; \
	VADDPD  Y4, Y6, Y4; \
	VADDPD  Y5, Y7, Y5

#define SRC4D(x, v) \
	VMOVUPD (x)(AX*8), Y6; \
	VMULPD  v, Y6, Y6; \
	VADDPD  Y4, Y6, Y4

#define SRC1D(x, v) \
	VMOVSD (x)(AX*8), X6; \
	VMULSD v, X6, X6; \
	VADDSD X4, X6, X4

// The source into sixteen, eight or one running float32 sums.
#define SRC16S(x, v) \
	VMOVUPS (x)(AX*4), Y6; \
	VMOVUPS 32(x)(AX*4), Y7; \
	VMULPS  v, Y6, Y6; \
	VMULPS  v, Y7, Y7; \
	VADDPS  Y4, Y6, Y4; \
	VADDPS  Y5, Y7, Y5

#define SRC8S(x, v) \
	VMOVUPS (x)(AX*4), Y6; \
	VMULPS  v, Y6, Y6; \
	VADDPS  Y4, Y6, Y4

#define SRC1S(x, v) \
	VMOVSS (x)(AX*4), X6; \
	VMULSS v, X6, X6; \
	VADDSS X4, X6, X4

// func axpyF64AVX2(dst *float64, n int, v float64, x *float64)
TEXT ·axpyF64AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD v+16(FP), Y0
	MOVQ         x+24(FP), SI
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JMP          check8

loop8:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	SRC8D(SI, Y0)
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX

check8:
	CMPQ    AX, BX
	JLT     loop8
	TESTQ   $4, CX
	JZ      check1
	VMOVUPD (DI)(AX*8), Y4
	SRC4D(SI, Y0)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     check1

loop1:
	VMOVSD (DI)(AX*8), X4
	SRC1D(SI, X0)
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX

check1:
	CMPQ AX, CX
	JLT  loop1
	VZEROUPPER
	RET

// func axpyF32AVX2(dst *float32, n int, v float32, x *float32)
TEXT ·axpyF32AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS v+16(FP), Y0
	MOVQ         x+24(FP), SI
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-16, BX
	JMP          check16

loop16:
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	SRC16S(SI, Y0)
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ    $16, AX

check16:
	CMPQ    AX, BX
	JLT     loop16
	TESTQ   $8, CX
	JZ      check1
	VMOVUPS (DI)(AX*4), Y4
	SRC8S(SI, Y0)
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     check1

loop1:
	VMOVSS (DI)(AX*4), X4
	SRC1S(SI, X0)
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX

check1:
	CMPQ AX, CX
	JLT  loop1
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1 and 2 (the OS
// saves XMM and YMM state across context switches), CPUID.7.0:EBX bit 5
// (AVX2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
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
