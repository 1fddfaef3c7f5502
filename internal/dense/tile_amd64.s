//go:build !purego

#include "textflag.h"

// AVX2 bodies of the two register tiles (tile.go), one column strip per
// call, w ≤ 16 float64 columns held in four YMM registers per
// row from the first term to the store, so each output element is loaded
// and stored once per call. Every element receives the IEEE operations of
// the Go body in its order: one multiply and one add per term, never a
// fused multiply-add, with the operand order of the plain build of AxpyRow
// (b first in the multiply, the product first in the add). x86 consults it
// only where two different NaNs meet, and there the compiled Go loop is not
// consistent with itself (see twoNaNsMeet). The strip's last vector is
// loaded and stored under a lane mask when w is not a whole number of
// vectors. Nothing outside the window of dst is written and nothing outside
// the operands is read.
//
// The dense tile (tileStrip*, the Go body gemmTile) computes, for every row
// ρ < rows and column c < w,
//
//	dst[ρ·ldd + c] = (load ? dst[ρ·ldd + c] : +0) + Σ_kk s[ρ·sRow + kk·sK]·b[kk·ldb + c]
//
// over kk = 0 … k-1 in ascending order, skipping a term exactly where
// s != 0 is false (±0; never NaN) when skip is set: the branch goes around
// the term, so a skipped term runs no add into the sum. Two rows at a time
// keep their sums in eight registers; an odd last row runs as a pair of two
// copies of itself, which compute the same bits and store them to the same
// place. The caller (tile_amd64.go) has checked the bounds and rows, w > 0.
//
// Registers: DI/SI the pair's first dst row and first scale, R12/R13 the
// byte offsets of its second (0 when the pair is one row twice), R11 the
// second dst row, DX the scale cursor, BX the B cursor, CX the k-steps left,
// AX the rows left, R9/R10 the k strides of s and b in bytes, R14 1 when
// skip is off, R8 scratch. Y0–Y3 and Y4–Y7 the two rows' sums, Y8–Y11 the
// k-step's B vectors, Y12 the broadcast scale, Y13 the product, Y14 the tail
// mask.
//
// The CSR tile (csrStrip*, the Go body csrTile) computes, for every row
// ρ < rows and column c < w,
//
//	dst[ρ·ldd + c] = (load ? dst[ρ·ldd + c] : +0) + Σ_e val[e]·b[idx[e]·ldb + c]
//
// over the row's stored entries e = ptr[ρ] … ptr[ρ+1]-1 in ascending order,
// every one of them applied: a row without entries stores +0, or under
// load is left as it was. It checks what the Go body's slicing would: an entry index outside
// [0, lim) or a source row outside [0, bRows) returns false, with the rows
// before it stored.
//
// Registers: DI the dst row, SI the row's ptr slot, R8/R9 the idx and val
// bases, R11 the b base, BX the entry's B row, CX/DX the row's entry cursor
// and end, AX the rows left, R10/R12 the b and dst row strides in bytes,
// R13 lim, R14 bRows. Y0–Y3 the row's sums, Y8–Y11 the entry's B vectors,
// Y12 the broadcast value, Y13 the product, Y14 the tail mask.

// Lane masks: 32 bytes read at tileMask+32-r·size have the first r lanes
// set.
DATA tileMask<>+0(SB)/8, $0xffffffffffffffff
DATA tileMask<>+8(SB)/8, $0xffffffffffffffff
DATA tileMask<>+16(SB)/8, $0xffffffffffffffff
DATA tileMask<>+24(SB)/8, $0xffffffffffffffff
DATA tileMask<>+32(SB)/8, $0
DATA tileMask<>+40(SB)/8, $0
DATA tileMask<>+48(SB)/8, $0
DATA tileMask<>+56(SB)/8, $0
GLOBL tileMask<>(SB), RODATA|NOPTR, $64

// Both tiles take the strip width at w+64(FP). DISPATCHD jumps
// to the variant for it: v1–v4 for one to four whole vectors, v1m–v4m with
// the last vector under the mask they leave in Y14. BX, CX and DX are
// scratch.
#define DISPATCH(LANES, SH, ELEM) \
	MOVQ    w+64(FP), BX; \
	MOVQ    BX, CX; \
	ANDQ    $(LANES-1), CX; \
	JZ      whole; \
	NEGQ    CX; \
	LEAQ    tileMask<>+32(SB), DX; \
	VMOVDQU (DX)(CX*ELEM), Y14; \
	ADDQ    $(LANES-1), BX; \
	SHRQ    SH, BX; \
	CMPQ    BX, $2; \
	JLT     v1m; \
	JEQ     v2m; \
	CMPQ    BX, $3; \
	JEQ     v3m; \
	JMP     v4m; \
whole: \
	SHRQ    SH, BX; \
	CMPQ    BX, $2; \
	JLT     v1; \
	JEQ     v2; \
	CMPQ    BX, $3; \
	JEQ     v3; \
	JMP     v4

#define DISPATCHD DISPATCH(4, $2, 8)

// The zero test: falls through to the term unless skip is set and the scale
// at addr is ±0 (its bits shifted left by one are zero).
#define TESTD(addr, skiplbl) \
	MOVQ addr, R8; \
	ADDQ R8, R8; \
	ORQ  R14, R8; \
	JZ   skiplbl

// One B vector times the broadcast scale, added into a running sum.
#define MADD(bv, acc) \
	VMULPD Y12, bv, Y13; \
	VADDPD acc, Y13, acc

// One row's term, one to four vectors wide.
#define ROWD1(a0, a1, a2, a3) MADD(Y8, a0)
#define ROWD2(a0, a1, a2, a3) ROWD1(a0, a1, a2, a3); MADD(Y9, a1)
#define ROWD3(a0, a1, a2, a3) ROWD2(a0, a1, a2, a3); MADD(Y10, a2)
#define ROWD4(a0, a1, a2, a3) ROWD3(a0, a1, a2, a3); MADD(Y11, a3)

// The term's B vectors from BX; the M forms load the last one under the
// mask.
#define BD1 VMOVUPD (BX), Y8
#define BD2 BD1; VMOVUPD 32(BX), Y9
#define BD3 BD2; VMOVUPD 64(BX), Y10
#define BD4 BD3; VMOVUPD 96(BX), Y11
#define BD1M VMASKMOVPD (BX), Y14, Y8
#define BD2M BD1; VMASKMOVPD 32(BX), Y14, Y9
#define BD3M BD2; VMASKMOVPD 64(BX), Y14, Y10
#define BD4M BD3; VMASKMOVPD 96(BX), Y14, Y11

// A row's running sums from dst at r.
#define LDD1(r, a0, a1, a2, a3) VMOVUPD (r), a0
#define LDD2(r, a0, a1, a2, a3) LDD1(r, a0, a1, a2, a3); VMOVUPD 32(r), a1
#define LDD3(r, a0, a1, a2, a3) LDD2(r, a0, a1, a2, a3); VMOVUPD 64(r), a2
#define LDD4(r, a0, a1, a2, a3) LDD3(r, a0, a1, a2, a3); VMOVUPD 96(r), a3
#define LDD1M(r, a0, a1, a2, a3) VMASKMOVPD (r), Y14, a0
#define LDD2M(r, a0, a1, a2, a3) LDD1(r, a0, a1, a2, a3); VMASKMOVPD 32(r), Y14, a1
#define LDD3M(r, a0, a1, a2, a3) LDD2(r, a0, a1, a2, a3); VMASKMOVPD 64(r), Y14, a2
#define LDD4M(r, a0, a1, a2, a3) LDD3(r, a0, a1, a2, a3); VMASKMOVPD 96(r), Y14, a3

// A row's running sums back to dst at r.
#define STD1(r, a0, a1, a2, a3) VMOVUPD a0, (r)
#define STD2(r, a0, a1, a2, a3) STD1(r, a0, a1, a2, a3); VMOVUPD a1, 32(r)
#define STD3(r, a0, a1, a2, a3) STD2(r, a0, a1, a2, a3); VMOVUPD a2, 64(r)
#define STD4(r, a0, a1, a2, a3) STD3(r, a0, a1, a2, a3); VMOVUPD a3, 96(r)
#define STD1M(r, a0, a1, a2, a3) VMASKMOVPD a0, Y14, (r)
#define STD2M(r, a0, a1, a2, a3) STD1(r, a0, a1, a2, a3); VMASKMOVPD a1, Y14, 32(r)
#define STD3M(r, a0, a1, a2, a3) STD2(r, a0, a1, a2, a3); VMASKMOVPD a2, Y14, 64(r)
#define STD4M(r, a0, a1, a2, a3) STD3(r, a0, a1, a2, a3); VMASKMOVPD a3, Y14, 96(r)

// A row's running sums at +0 (all bits clear).
#define Z1(a0, a1, a2, a3) VXORPS a0, a0, a0
#define Z2(a0, a1, a2, a3) Z1(a0, a1, a2, a3); VXORPS a1, a1, a1
#define Z3(a0, a1, a2, a3) Z2(a0, a1, a2, a3); VXORPS a2, a2, a2
#define Z4(a0, a1, a2, a3) Z3(a0, a1, a2, a3); VXORPS a3, a3, a3

// The dense strip, two rows at a time, at one vector count: SH is log2 of
// the element size, TEST/BCAST the element's zero test and broadcast, and
// the rest the vector count's loads, sums and stores. The labels are the
// variant's own; done is shared.
#define STRIP(SH, TEST, BCAST, BLOAD, LOAD, ZERO, ROW, STORE, pair, kinit, kloop, skip0, skip1, store) \
pair: \
	MOVQ    ldd+8(FP), R12; \
	SHLQ    SH, R12; \
	MOVQ    sRow+24(FP), R13; \
	SHLQ    SH, R13; \
	XORQ    R8, R8; \
	CMPQ    AX, $1; \
	CMOVQEQ R8, R12; \
	CMOVQEQ R8, R13; \
	LEAQ    (DI)(R12*1), R11; \
	MOVQ    SI, DX; \
	MOVQ    b+40(FP), BX; \
	MOVQ    k+72(FP), CX; \
	ZERO(Y0, Y1, Y2, Y3); \
	ZERO(Y4, Y5, Y6, Y7); \
	CMPB    load+80(FP), $0; \
	JEQ     kinit; \
	LOAD(DI, Y0, Y1, Y2, Y3); \
	LOAD(R11, Y4, Y5, Y6, Y7); \
kinit: \
	TESTQ   CX, CX; \
	JZ      store; \
kloop: \
	BLOAD; \
	TEST((DX), skip0); \
	BCAST   (DX), Y12; \
	ROW(Y0, Y1, Y2, Y3); \
skip0: \
	TEST((DX)(R13*1), skip1); \
	BCAST   (DX)(R13*1), Y12; \
	ROW(Y4, Y5, Y6, Y7); \
skip1: \
	ADDQ    R9, DX; \
	ADDQ    R10, BX; \
	DECQ    CX; \
	JNZ     kloop; \
store: \
	STORE(DI, Y0, Y1, Y2, Y3); \
	STORE(R11, Y4, Y5, Y6, Y7); \
	LEAQ    (DI)(R12*2), DI; \
	LEAQ    (SI)(R13*2), SI; \
	SUBQ    $2, AX; \
	JGT     pair; \
	JMP     done

// The registers every dense variant starts from (see above); SH is log2 of
// the element size.
#define PROLOGUE(SH) \
	MOVQ    dst+0(FP), DI; \
	MOVQ    s+16(FP), SI; \
	MOVQ    sK+32(FP), R9; \
	SHLQ    SH, R9; \
	MOVQ    ldb+48(FP), R10; \
	SHLQ    SH, R10; \
	MOVQ    rows+56(FP), AX; \
	MOVBQZX skip+81(FP), R14; \
	XORQ    $1, R14

// The CSR strip, one row at a time, at one vector count: VAL broadcasts the
// entry's value, the rest as in STRIP. Under load a row without entries is
// left as it is, neither loaded nor stored: a 2D or 1D stage block is mostly
// such rows. An entry's B row is b + idx·ldb,
// reached only once idx < bRows; the row's entries only once
// 0 ≤ ptr[ρ] < ptr[ρ+1] ≤ lim. The labels are the variant's own; ok and bad
// are shared.
#define CSRSTRIP(VAL, BLOAD, LOAD, ZERO, ROW, STORE, row, first, entry, store, next) \
row: \
	MOVQ    (SI), CX; \
	MOVQ    8(SI), DX; \
	ZERO(Y0, Y1, Y2, Y3); \
	CMPB    load+88(FP), $0; \
	JEQ     first; \
	CMPQ    CX, DX; \
	JGE     next; \
	LOAD(DI, Y0, Y1, Y2, Y3); \
first: \
	CMPQ    CX, DX; \
	JGE     store; \
	CMPQ    DX, R13; \
	JHI     bad; \
	CMPQ    CX, R13; \
	JHI     bad; \
entry: \
	MOVQ    (R8)(CX*8), BX; \
	CMPQ    BX, R14; \
	JCC     bad; \
	IMULQ   R10, BX; \
	ADDQ    R11, BX; \
	VAL; \
	BLOAD; \
	ROW(Y0, Y1, Y2, Y3); \
	INCQ    CX; \
	CMPQ    CX, DX; \
	JLT     entry; \
store: \
	STORE(DI, Y0, Y1, Y2, Y3); \
next: \
	ADDQ    R12, DI; \
	ADDQ    $8, SI; \
	DECQ    AX; \
	JNZ     row; \
	JMP     ok

#define VALD VBROADCASTSD (R9)(CX*8), Y12

// The registers every CSR variant starts from (see above); SH is log2 of
// the element size.
#define CSRPROLOGUE(SH) \
	MOVQ    dst+0(FP), DI; \
	MOVQ    ldd+8(FP), R12; \
	SHLQ    SH, R12; \
	MOVQ    ptr+16(FP), SI; \
	MOVQ    idx+24(FP), R8; \
	MOVQ    val+32(FP), R9; \
	MOVQ    b+40(FP), R11; \
	MOVQ    ldb+48(FP), R10; \
	SHLQ    SH, R10; \
	MOVQ    rows+56(FP), AX; \
	MOVQ    lim+72(FP), R13; \
	MOVQ    bRows+80(FP), R14

// The compaction body (compactNZ in tile.go), row by row of the window:
// ptr[ρ] = n, then the row's elements four a step — colStride bytes apart
// from the row's first, into one vector; the v != 0 lanes of it (VCMPPD
// predicate 4, not-equal-or-unordered, against +0: clear for ±0, set for
// NaN) moved to its bottom by the permutation compactTable holds for that
// lane mask, and the elements' indices with them; all four lanes stored at
// entry n, and n advanced past the set ones — and the row's last cols%4
// elements one at a time, each stored at n and n advanced when its bits
// shifted left by one are not zero (NEG sets the carry exactly then). No
// store passes the window's own entries, since n counts at most the
// elements before the one stored. The caller (tile_amd64.go) has checked
// the bounds and rows > 0.
//
// Registers: DI the row's first element, SI the element, R10/R11 one and
// three column strides in bytes, R8/R9 the idx and val bases, R12 the ptr
// slot, R13 the rows left, CX the steps left in the row, DX the entry n,
// AX compactTable, BX and R14 scratch. Y5 the step's indices, Y7 four in
// each lane, Y8 the indices of a row's first step, Y15 +0.

#define COMPACTINIT(SH) \
	MOVQ         ptr+0(FP), R12; \
	MOVQ         idx+8(FP), R8; \
	MOVQ         val+16(FP), R9; \
	MOVQ         data+24(FP), DI; \
	MOVQ         colStride+40(FP), R10; \
	SHLQ         SH, R10; \
	LEAQ         (R10)(R10*2), R11; \
	MOVQ         rows+48(FP), R13; \
	LEAQ         ·compactTable(SB), AX; \
	XORQ         DX, DX; \
	VPXOR        Y15, Y15, Y15; \
	MOVQ         $4, BX; \
	VMOVQ        BX, X7; \
	VPBROADCASTQ X7, Y7; \
	VMOVQ        first+64(FP), X8; \
	VPBROADCASTQ X8, Y8; \
	VPADDQ       compactLanes<>(SB), Y8, Y8

// A row's start: its ptr slot, its first element and index, its steps.
#define COMPACTROW \
	MOVQ    DX, (R12); \
	ADDQ    $8, R12; \
	MOVQ    DI, SI; \
	VMOVDQA Y8, Y5; \
	MOVQ    cols+56(FP), CX; \
	SHRQ    $2, CX

// The step's indices, permuted as its values were (by the entry's pairs at
// BX), stored at entry n; then the next step's.
#define COMPACTIDX \
	VMOVDQU (AX)(BX*1), Y3; \
	VPERMD  Y5, Y3, Y6; \
	VMOVDQU Y6, (R8)(DX*8); \
	ADDQ    32(AX)(BX*1), DX; \
	VPADDQ  Y7, Y5, Y5; \
	LEAQ    (SI)(R10*4), SI

// The row's last cols%4 elements, each of them MOV-sized, then the next
// row; labels the variant's own.
#define COMPACTTAIL(MOV, SHL, NEG, ELEM, tail, one, next) \
tail: \
	MOVQ    cols+56(FP), CX; \
	ANDQ    $3, CX; \
	JZ      next; \
	VMOVQ   X5, R14; \
one: \
	MOV     (SI), BX; \
	MOV     BX, (R9)(DX*ELEM); \
	MOVQ    R14, (R8)(DX*8); \
	SHL     $1, BX; \
	NEG     BX; \
	ADCQ    $0, DX; \
	INCQ    R14; \
	ADDQ    R10, SI; \
	DECQ    CX; \
	JNZ     one; \
next: \
	MOVQ    rowStride+32(FP), BX; \
	SHLQ    $(ELEM/4+1), BX; \
	ADDQ    BX, DI; \
	DECQ    R13

DATA compactLanes<>+0(SB)/8, $0
DATA compactLanes<>+8(SB)/8, $1
DATA compactLanes<>+16(SB)/8, $2
DATA compactLanes<>+24(SB)/8, $3
GLOBL compactLanes<>(SB), RODATA|NOPTR, $32

// func tileStripF64(dst *float64, ldd int, s *float64, sRow int, sK int, b *float64, ldb int, rows int, w int, k int, load bool, skip bool)
TEXT ·tileStripF64(SB), NOSPLIT, $0-82
	PROLOGUE($3)
	DISPATCHD

v1:
	STRIP($3, TESTD, VBROADCASTSD, BD1, LDD1, Z1, ROWD1, STD1, pair1, kinit1, kloop1, skipa1, skipb1, store1)
v2:
	STRIP($3, TESTD, VBROADCASTSD, BD2, LDD2, Z2, ROWD2, STD2, pair2, kinit2, kloop2, skipa2, skipb2, store2)
v3:
	STRIP($3, TESTD, VBROADCASTSD, BD3, LDD3, Z3, ROWD3, STD3, pair3, kinit3, kloop3, skipa3, skipb3, store3)
v4:
	STRIP($3, TESTD, VBROADCASTSD, BD4, LDD4, Z4, ROWD4, STD4, pair4, kinit4, kloop4, skipa4, skipb4, store4)
v1m:
	STRIP($3, TESTD, VBROADCASTSD, BD1M, LDD1M, Z1, ROWD1, STD1M, pair1m, kinit1m, kloop1m, skipa1m, skipb1m, store1m)
v2m:
	STRIP($3, TESTD, VBROADCASTSD, BD2M, LDD2M, Z2, ROWD2, STD2M, pair2m, kinit2m, kloop2m, skipa2m, skipb2m, store2m)
v3m:
	STRIP($3, TESTD, VBROADCASTSD, BD3M, LDD3M, Z3, ROWD3, STD3M, pair3m, kinit3m, kloop3m, skipa3m, skipb3m, store3m)
v4m:
	STRIP($3, TESTD, VBROADCASTSD, BD4M, LDD4M, Z4, ROWD4, STD4M, pair4m, kinit4m, kloop4m, skipa4m, skipb4m, store4m)

done:
	VZEROUPPER
	RET

// func csrStripF64(dst *float64, ldd int, ptr *int, idx *int, val *float64, b *float64, ldb int, rows int, w int, lim int, bRows int, load bool) bool
TEXT ·csrStripF64(SB), NOSPLIT, $0-97
	CSRPROLOGUE($3)
	DISPATCHD

v1:
	CSRSTRIP(VALD, BD1, LDD1, Z1, ROWD1, STD1, row1, first1, entry1, store1, next1)
v2:
	CSRSTRIP(VALD, BD2, LDD2, Z2, ROWD2, STD2, row2, first2, entry2, store2, next2)
v3:
	CSRSTRIP(VALD, BD3, LDD3, Z3, ROWD3, STD3, row3, first3, entry3, store3, next3)
v4:
	CSRSTRIP(VALD, BD4, LDD4, Z4, ROWD4, STD4, row4, first4, entry4, store4, next4)
v1m:
	CSRSTRIP(VALD, BD1M, LDD1M, Z1, ROWD1, STD1M, row1m, first1m, entry1m, store1m, next1m)
v2m:
	CSRSTRIP(VALD, BD2M, LDD2M, Z2, ROWD2, STD2M, row2m, first2m, entry2m, store2m, next2m)
v3m:
	CSRSTRIP(VALD, BD3M, LDD3M, Z3, ROWD3, STD3M, row3m, first3m, entry3m, store3m, next3m)
v4m:
	CSRSTRIP(VALD, BD4M, LDD4M, Z4, ROWD4, STD4M, row4m, first4m, entry4m, store4m, next4m)

ok:
	MOVB $1, ret+96(FP)
	VZEROUPPER
	RET

bad:
	MOVB $0, ret+96(FP)
	VZEROUPPER
	RET

// func compactF64(ptr *int, idx *int, val *float64, data *float64, rowStride int, colStride int, rows int, cols int, first int) int
TEXT ·compactF64(SB), NOSPLIT, $0-80
	COMPACTINIT($3)

row64:
	COMPACTROW
	JZ row64tail

step64:
	VMOVSD      (SI), X0
	VMOVHPD     (SI)(R10*1), X0, X0
	VMOVSD      (SI)(R10*2), X1
	VMOVHPD     (SI)(R11*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VCMPPD      $4, Y15, Y0, Y2
	VMOVMSKPD   Y2, BX
	SHLQ        $6, BX
	VMOVDQU     (AX)(BX*1), Y3
	VPERMPS     Y0, Y3, Y4
	VMOVUPD     Y4, (R9)(DX*8)
	COMPACTIDX
	DECQ        CX
	JNZ         step64

	COMPACTTAIL(MOVQ, SHLQ, NEGQ, 8, row64tail, row64one, row64next)
	JNZ row64

	MOVQ DX, (R12)
	MOVQ DX, ret+72(FP)
	VZEROUPPER
	RET
