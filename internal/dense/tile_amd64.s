//go:build !purego

#include "textflag.h"

// The vector bodies of the two register tiles (tile.go), one column strip
// per call, each written once as the macros below and assembled twice:
// with AVX2, w ≤ 16 float64 columns in up to four YMM registers per row,
// and with AVX-512, w ≤ 64 in up to eight ZMM registers. A strip's row sums
// stay in registers from the first term to the store, so each output
// element is loaded and stored once per call. Every element receives the
// IEEE operations of the Go body in its order: one multiply and one add per
// term, never a fused multiply-add, with the operand order of the plain
// build of AxpyRow (b first in the multiply, the product first in the add).
// x86 consults it only where two different NaNs meet, and there the
// compiled Go loop is not consistent with itself (see twoNaNsMeet). The
// strip's last vector is loaded and stored under a lane mask when w is not
// a whole number of vectors: a YMM mask for AVX2's VMASKMOVPD, the opmask
// K1 for AVX-512 (the loads zero the lanes it leaves out). Both suppress
// faults in the lanes left out, so nothing outside the window of dst is
// written and nothing outside the operands is read.
//
// The dense tile (tileStrip*, the Go body gemmTile) computes, for every row
// ρ < rows and column c < w,
//
//	dst[ρ·ldd + c] = (load ? dst[ρ·ldd + c] : +0) + Σ_kk s[ρ·sRow + kk·sK]·b[kk·ldb + c]
//
// over kk = 0 … k-1 in ascending order, skipping a term exactly where
// s != 0 is false (±0; never NaN) when skip is set: the branch goes around
// the term, so a skipped term runs no add into the sum. Two rows at a time
// keep their sums in up to eight YMM or sixteen ZMM registers; an odd last
// row runs as a pair of two copies of itself, which compute the same bits
// and store them to the same place. The caller (tile_amd64.go) has checked
// the bounds and rows, w > 0.
//
// Registers: DI/SI the pair's first dst row and first scale, R12/R13 the
// byte offsets of its second (0 when the pair is one row twice), R11 the
// second dst row, DX the scale cursor, BX the B cursor, CX the k-steps left,
// AX the rows left, R9/R10 the k strides of s and b in bytes, R14 1 when
// skip is off, R8 scratch. With AVX2, Y0–Y3 and Y4–Y7 the two rows' sums,
// Y8–Y11 the k-step's B vectors, Y12 the broadcast scale, Y13 the product,
// Y14 the tail mask; with AVX-512, Z0–Z7 and Z8–Z15 the sums, Z16–Z23 the
// B vectors, Z24 the scale, Z25 the product, K1 the tail mask.
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
// R13 lim, R14 bRows. The row's sums in the first row's registers above,
// the entry's B vectors, broadcast value, product and tail mask in the
// registers of the same names.
//
// What differs between the two assemblies is named by the macros each
// defines before its TEXT blocks: LANES (float64 per vector) and LOG2 (its
// log2), O1–O7 the byte offsets of a row's second to eighth vector,
// SUM0–SUM7 and SUM8–SUM15 the two rows' sums, BV0–BV7 the B vectors, SCL
// and PRD the scale and the product, VZERO, MLOAD and MSTORE a register
// cleared and a vector loaded and stored under the tail mask, TAILMASK,
// which sets the tail mask from the lane count in CX (DX scratch), and
// PICK, which jumps to the variant for the vector count in BX. AVX2 names
// only what four vectors to a row use, and assembles only those variants.

// AVX2's lane masks: 32 bytes read at tileMask+32-r·8 have the first r
// lanes set.
DATA tileMask<>+0(SB)/8, $0xffffffffffffffff
DATA tileMask<>+8(SB)/8, $0xffffffffffffffff
DATA tileMask<>+16(SB)/8, $0xffffffffffffffff
DATA tileMask<>+24(SB)/8, $0xffffffffffffffff
DATA tileMask<>+32(SB)/8, $0
DATA tileMask<>+40(SB)/8, $0
DATA tileMask<>+48(SB)/8, $0
DATA tileMask<>+56(SB)/8, $0
GLOBL tileMask<>(SB), RODATA|NOPTR, $64

// Both tiles take the strip width at w+64(FP). DISPATCH jumps to the
// variant for it, through PICK: v1–v8 for one to eight whole vectors,
// v1m–v8m with the last vector under the tail mask (AVX2 has v1–v4 and
// v1m–v4m). BX, CX and DX are scratch.
#define DISPATCH \
	MOVQ    w+64(FP), BX; \
	MOVQ    BX, CX; \
	ANDQ    $(LANES-1), CX; \
	JZ      whole; \
	TAILMASK; \
	ADDQ    $(LANES-1), BX; \
	SHRQ    $LOG2, BX; \
	PICK(v1m, v2m, v3m, v4m, v5m, v6m, v7m, v8m, widem); \
whole: \
	SHRQ    $LOG2, BX; \
	PICK(v1, v2, v3, v4, v5, v6, v7, v8, wide)

// The zero test: falls through to the term unless skip is set and the scale
// at addr is ±0 (its bits shifted left by one are zero).
#define TESTD(addr, skiplbl) \
	MOVQ addr, R8; \
	ADDQ R8, R8; \
	ORQ  R14, R8; \
	JZ   skiplbl

// One B vector times the broadcast scale, added into a running sum.
#define MADD(bv, acc) \
	VMULPD SCL, bv, PRD; \
	VADDPD acc, PRD, acc


// One row's term, one to eight vectors wide.
#define ROWD1(a0, a1, a2, a3, a4, a5, a6, a7) MADD(BV0, a0)
#define ROWD2(a0, a1, a2, a3, a4, a5, a6, a7) ROWD1(a0, a1, a2, a3, a4, a5, a6, a7); MADD(BV1, a1)
#define ROWD3(a0, a1, a2, a3, a4, a5, a6, a7) ROWD2(a0, a1, a2, a3, a4, a5, a6, a7); MADD(BV2, a2)
#define ROWD4(a0, a1, a2, a3, a4, a5, a6, a7) ROWD3(a0, a1, a2, a3, a4, a5, a6, a7); MADD(BV3, a3)
#define ROWD5(a0, a1, a2, a3, a4, a5, a6, a7) ROWD4(a0, a1, a2, a3, a4, a5, a6, a7); MADD(BV4, a4)
#define ROWD6(a0, a1, a2, a3, a4, a5, a6, a7) ROWD5(a0, a1, a2, a3, a4, a5, a6, a7); MADD(BV5, a5)
#define ROWD7(a0, a1, a2, a3, a4, a5, a6, a7) ROWD6(a0, a1, a2, a3, a4, a5, a6, a7); MADD(BV6, a6)
#define ROWD8(a0, a1, a2, a3, a4, a5, a6, a7) ROWD7(a0, a1, a2, a3, a4, a5, a6, a7); MADD(BV7, a7)

// The term's B vectors from BX; the M forms load the last one under the
// mask.
#define BD1 VMOVUPD (BX), BV0
#define BD2 BD1; VMOVUPD O1(BX), BV1
#define BD3 BD2; VMOVUPD O2(BX), BV2
#define BD4 BD3; VMOVUPD O3(BX), BV3
#define BD5 BD4; VMOVUPD O4(BX), BV4
#define BD6 BD5; VMOVUPD O5(BX), BV5
#define BD7 BD6; VMOVUPD O6(BX), BV6
#define BD8 BD7; VMOVUPD O7(BX), BV7
#define BD1M MLOAD((BX), BV0)
#define BD2M BD1; MLOAD(O1(BX), BV1)
#define BD3M BD2; MLOAD(O2(BX), BV2)
#define BD4M BD3; MLOAD(O3(BX), BV3)
#define BD5M BD4; MLOAD(O4(BX), BV4)
#define BD6M BD5; MLOAD(O5(BX), BV5)
#define BD7M BD6; MLOAD(O6(BX), BV6)
#define BD8M BD7; MLOAD(O7(BX), BV7)

// A row's running sums from dst at r.
#define LDD1(r, a0, a1, a2, a3, a4, a5, a6, a7) VMOVUPD (r), a0
#define LDD2(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD1(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD O1(r), a1
#define LDD3(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD2(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD O2(r), a2
#define LDD4(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD3(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD O3(r), a3
#define LDD5(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD4(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD O4(r), a4
#define LDD6(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD5(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD O5(r), a5
#define LDD7(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD6(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD O6(r), a6
#define LDD8(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD7(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD O7(r), a7
#define LDD1M(r, a0, a1, a2, a3, a4, a5, a6, a7) MLOAD((r), a0)
#define LDD2M(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD1(r, a0, a1, a2, a3, a4, a5, a6, a7); MLOAD(O1(r), a1)
#define LDD3M(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD2(r, a0, a1, a2, a3, a4, a5, a6, a7); MLOAD(O2(r), a2)
#define LDD4M(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD3(r, a0, a1, a2, a3, a4, a5, a6, a7); MLOAD(O3(r), a3)
#define LDD5M(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD4(r, a0, a1, a2, a3, a4, a5, a6, a7); MLOAD(O4(r), a4)
#define LDD6M(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD5(r, a0, a1, a2, a3, a4, a5, a6, a7); MLOAD(O5(r), a5)
#define LDD7M(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD6(r, a0, a1, a2, a3, a4, a5, a6, a7); MLOAD(O6(r), a6)
#define LDD8M(r, a0, a1, a2, a3, a4, a5, a6, a7) LDD7(r, a0, a1, a2, a3, a4, a5, a6, a7); MLOAD(O7(r), a7)

// A row's running sums back to dst at r.
#define STD1(r, a0, a1, a2, a3, a4, a5, a6, a7) VMOVUPD a0, (r)
#define STD2(r, a0, a1, a2, a3, a4, a5, a6, a7) STD1(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD a1, O1(r)
#define STD3(r, a0, a1, a2, a3, a4, a5, a6, a7) STD2(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD a2, O2(r)
#define STD4(r, a0, a1, a2, a3, a4, a5, a6, a7) STD3(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD a3, O3(r)
#define STD5(r, a0, a1, a2, a3, a4, a5, a6, a7) STD4(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD a4, O4(r)
#define STD6(r, a0, a1, a2, a3, a4, a5, a6, a7) STD5(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD a5, O5(r)
#define STD7(r, a0, a1, a2, a3, a4, a5, a6, a7) STD6(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD a6, O6(r)
#define STD8(r, a0, a1, a2, a3, a4, a5, a6, a7) STD7(r, a0, a1, a2, a3, a4, a5, a6, a7); VMOVUPD a7, O7(r)
#define STD1M(r, a0, a1, a2, a3, a4, a5, a6, a7) MSTORE(a0, (r))
#define STD2M(r, a0, a1, a2, a3, a4, a5, a6, a7) STD1(r, a0, a1, a2, a3, a4, a5, a6, a7); MSTORE(a1, O1(r))
#define STD3M(r, a0, a1, a2, a3, a4, a5, a6, a7) STD2(r, a0, a1, a2, a3, a4, a5, a6, a7); MSTORE(a2, O2(r))
#define STD4M(r, a0, a1, a2, a3, a4, a5, a6, a7) STD3(r, a0, a1, a2, a3, a4, a5, a6, a7); MSTORE(a3, O3(r))
#define STD5M(r, a0, a1, a2, a3, a4, a5, a6, a7) STD4(r, a0, a1, a2, a3, a4, a5, a6, a7); MSTORE(a4, O4(r))
#define STD6M(r, a0, a1, a2, a3, a4, a5, a6, a7) STD5(r, a0, a1, a2, a3, a4, a5, a6, a7); MSTORE(a5, O5(r))
#define STD7M(r, a0, a1, a2, a3, a4, a5, a6, a7) STD6(r, a0, a1, a2, a3, a4, a5, a6, a7); MSTORE(a6, O6(r))
#define STD8M(r, a0, a1, a2, a3, a4, a5, a6, a7) STD7(r, a0, a1, a2, a3, a4, a5, a6, a7); MSTORE(a7, O7(r))

// A row's running sums at +0 (all bits clear).
#define CLR1(a0, a1, a2, a3, a4, a5, a6, a7) VZERO(a0)
#define CLR2(a0, a1, a2, a3, a4, a5, a6, a7) CLR1(a0, a1, a2, a3, a4, a5, a6, a7); VZERO(a1)
#define CLR3(a0, a1, a2, a3, a4, a5, a6, a7) CLR2(a0, a1, a2, a3, a4, a5, a6, a7); VZERO(a2)
#define CLR4(a0, a1, a2, a3, a4, a5, a6, a7) CLR3(a0, a1, a2, a3, a4, a5, a6, a7); VZERO(a3)
#define CLR5(a0, a1, a2, a3, a4, a5, a6, a7) CLR4(a0, a1, a2, a3, a4, a5, a6, a7); VZERO(a4)
#define CLR6(a0, a1, a2, a3, a4, a5, a6, a7) CLR5(a0, a1, a2, a3, a4, a5, a6, a7); VZERO(a5)
#define CLR7(a0, a1, a2, a3, a4, a5, a6, a7) CLR6(a0, a1, a2, a3, a4, a5, a6, a7); VZERO(a6)
#define CLR8(a0, a1, a2, a3, a4, a5, a6, a7) CLR7(a0, a1, a2, a3, a4, a5, a6, a7); VZERO(a7)

// The dense strip, two rows at a time, at one vector count: the vector
// count's loads, sums and stores. The labels are the variant's own; done is
// shared.
#define STRIP(BLOAD, LOAD, ZERO, ROW, STORE, pair, kinit, kloop, skip0, skip1, store) \
pair: \
	MOVQ    ldd+8(FP), R12; \
	SHLQ    $3, R12; \
	MOVQ    sRow+24(FP), R13; \
	SHLQ    $3, R13; \
	XORQ    R8, R8; \
	CMPQ    AX, $1; \
	CMOVQEQ R8, R12; \
	CMOVQEQ R8, R13; \
	LEAQ    (DI)(R12*1), R11; \
	MOVQ    SI, DX; \
	MOVQ    b+40(FP), BX; \
	MOVQ    k+72(FP), CX; \
	ZERO(SUM0, SUM1, SUM2, SUM3, SUM4, SUM5, SUM6, SUM7); \
	ZERO(SUM8, SUM9, SUM10, SUM11, SUM12, SUM13, SUM14, SUM15); \
	CMPB    load+80(FP), $0; \
	JEQ     kinit; \
	LOAD(DI, SUM0, SUM1, SUM2, SUM3, SUM4, SUM5, SUM6, SUM7); \
	LOAD(R11, SUM8, SUM9, SUM10, SUM11, SUM12, SUM13, SUM14, SUM15); \
kinit: \
	TESTQ   CX, CX; \
	JZ      store; \
kloop: \
	BLOAD; \
	TESTD((DX), skip0); \
	VBROADCASTSD (DX), SCL; \
	ROW(SUM0, SUM1, SUM2, SUM3, SUM4, SUM5, SUM6, SUM7); \
skip0: \
	TESTD((DX)(R13*1), skip1); \
	VBROADCASTSD (DX)(R13*1), SCL; \
	ROW(SUM8, SUM9, SUM10, SUM11, SUM12, SUM13, SUM14, SUM15); \
skip1: \
	ADDQ    R9, DX; \
	ADDQ    R10, BX; \
	DECQ    CX; \
	JNZ     kloop; \
store: \
	STORE(DI, SUM0, SUM1, SUM2, SUM3, SUM4, SUM5, SUM6, SUM7); \
	STORE(R11, SUM8, SUM9, SUM10, SUM11, SUM12, SUM13, SUM14, SUM15); \
	LEAQ    (DI)(R12*2), DI; \
	LEAQ    (SI)(R13*2), SI; \
	SUBQ    $2, AX; \
	JGT     pair; \
	JMP     done

// The dense tile's body at one to four vectors: the registers every
// variant starts from (see above), then the variant for w. Its TEXT block
// follows it with done, and at AVX-512 with TILEWIDE before that.
#define TILESTRIP \
	MOVQ    dst+0(FP), DI; \
	MOVQ    s+16(FP), SI; \
	MOVQ    sK+32(FP), R9; \
	SHLQ    $3, R9; \
	MOVQ    ldb+48(FP), R10; \
	SHLQ    $3, R10; \
	MOVQ    rows+56(FP), AX; \
	MOVBQZX skip+81(FP), R14; \
	XORQ    $1, R14; \
	DISPATCH; \
v1: \
	STRIP(BD1, LDD1, CLR1, ROWD1, STD1, pair1, kinit1, kloop1, skipa1, skipb1, store1); \
v2: \
	STRIP(BD2, LDD2, CLR2, ROWD2, STD2, pair2, kinit2, kloop2, skipa2, skipb2, store2); \
v3: \
	STRIP(BD3, LDD3, CLR3, ROWD3, STD3, pair3, kinit3, kloop3, skipa3, skipb3, store3); \
v4: \
	STRIP(BD4, LDD4, CLR4, ROWD4, STD4, pair4, kinit4, kloop4, skipa4, skipb4, store4); \
v1m: \
	STRIP(BD1M, LDD1M, CLR1, ROWD1, STD1M, pair1m, kinit1m, kloop1m, skipa1m, skipb1m, store1m); \
v2m: \
	STRIP(BD2M, LDD2M, CLR2, ROWD2, STD2M, pair2m, kinit2m, kloop2m, skipa2m, skipb2m, store2m); \
v3m: \
	STRIP(BD3M, LDD3M, CLR3, ROWD3, STD3M, pair3m, kinit3m, kloop3m, skipa3m, skipb3m, store3m); \
v4m: \
	STRIP(BD4M, LDD4M, CLR4, ROWD4, STD4M, pair4m, kinit4m, kloop4m, skipa4m, skipb4m, store4m)

// The dense tile's variants at five to eight vectors.
#define TILEWIDE \
v5: \
	STRIP(BD5, LDD5, CLR5, ROWD5, STD5, pair5, kinit5, kloop5, skipa5, skipb5, store5); \
v6: \
	STRIP(BD6, LDD6, CLR6, ROWD6, STD6, pair6, kinit6, kloop6, skipa6, skipb6, store6); \
v7: \
	STRIP(BD7, LDD7, CLR7, ROWD7, STD7, pair7, kinit7, kloop7, skipa7, skipb7, store7); \
v8: \
	STRIP(BD8, LDD8, CLR8, ROWD8, STD8, pair8, kinit8, kloop8, skipa8, skipb8, store8); \
v5m: \
	STRIP(BD5M, LDD5M, CLR5, ROWD5, STD5M, pair5m, kinit5m, kloop5m, skipa5m, skipb5m, store5m); \
v6m: \
	STRIP(BD6M, LDD6M, CLR6, ROWD6, STD6M, pair6m, kinit6m, kloop6m, skipa6m, skipb6m, store6m); \
v7m: \
	STRIP(BD7M, LDD7M, CLR7, ROWD7, STD7M, pair7m, kinit7m, kloop7m, skipa7m, skipb7m, store7m); \
v8m: \
	STRIP(BD8M, LDD8M, CLR8, ROWD8, STD8M, pair8m, kinit8m, kloop8m, skipa8m, skipb8m, store8m)

// The CSR strip, one row at a time, at one vector count, as in STRIP.
// Under load a row without entries is left as it is, neither loaded nor
// stored: a 2D or 1D stage block is mostly such rows. An entry's B row is
// b + idx·ldb, reached only once idx < bRows; the row's entries only once
// 0 ≤ ptr[ρ] < ptr[ρ+1] ≤ lim. The labels are the variant's own; ok and bad
// are shared.
#define CSRSTRIP(BLOAD, LOAD, ZERO, ROW, STORE, row, first, entry, store, next) \
row: \
	MOVQ    (SI), CX; \
	MOVQ    8(SI), DX; \
	ZERO(SUM0, SUM1, SUM2, SUM3, SUM4, SUM5, SUM6, SUM7); \
	CMPB    load+88(FP), $0; \
	JEQ     first; \
	CMPQ    CX, DX; \
	JGE     next; \
	LOAD(DI, SUM0, SUM1, SUM2, SUM3, SUM4, SUM5, SUM6, SUM7); \
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
	VBROADCASTSD (R9)(CX*8), SCL; \
	BLOAD; \
	ROW(SUM0, SUM1, SUM2, SUM3, SUM4, SUM5, SUM6, SUM7); \
	INCQ    CX; \
	CMPQ    CX, DX; \
	JLT     entry; \
store: \
	STORE(DI, SUM0, SUM1, SUM2, SUM3, SUM4, SUM5, SUM6, SUM7); \
next: \
	ADDQ    R12, DI; \
	ADDQ    $8, SI; \
	DECQ    AX; \
	JNZ     row; \
	JMP     ok

// The CSR tile's body at one to four vectors: the registers every variant
// starts from (see above), then the variant for w. Its TEXT block follows
// it with ok and bad, and at AVX-512 with CSRWIDE before them.
#define CSRTILESTRIP \
	MOVQ    dst+0(FP), DI; \
	MOVQ    ldd+8(FP), R12; \
	SHLQ    $3, R12; \
	MOVQ    ptr+16(FP), SI; \
	MOVQ    idx+24(FP), R8; \
	MOVQ    val+32(FP), R9; \
	MOVQ    b+40(FP), R11; \
	MOVQ    ldb+48(FP), R10; \
	SHLQ    $3, R10; \
	MOVQ    rows+56(FP), AX; \
	MOVQ    lim+72(FP), R13; \
	MOVQ    bRows+80(FP), R14; \
	DISPATCH; \
v1: \
	CSRSTRIP(BD1, LDD1, CLR1, ROWD1, STD1, row1, first1, entry1, store1, next1); \
v2: \
	CSRSTRIP(BD2, LDD2, CLR2, ROWD2, STD2, row2, first2, entry2, store2, next2); \
v3: \
	CSRSTRIP(BD3, LDD3, CLR3, ROWD3, STD3, row3, first3, entry3, store3, next3); \
v4: \
	CSRSTRIP(BD4, LDD4, CLR4, ROWD4, STD4, row4, first4, entry4, store4, next4); \
v1m: \
	CSRSTRIP(BD1M, LDD1M, CLR1, ROWD1, STD1M, row1m, first1m, entry1m, store1m, next1m); \
v2m: \
	CSRSTRIP(BD2M, LDD2M, CLR2, ROWD2, STD2M, row2m, first2m, entry2m, store2m, next2m); \
v3m: \
	CSRSTRIP(BD3M, LDD3M, CLR3, ROWD3, STD3M, row3m, first3m, entry3m, store3m, next3m); \
v4m: \
	CSRSTRIP(BD4M, LDD4M, CLR4, ROWD4, STD4M, row4m, first4m, entry4m, store4m, next4m)

// The CSR tile's variants at five to eight vectors.
#define CSRWIDE \
v5: \
	CSRSTRIP(BD5, LDD5, CLR5, ROWD5, STD5, row5, first5, entry5, store5, next5); \
v6: \
	CSRSTRIP(BD6, LDD6, CLR6, ROWD6, STD6, row6, first6, entry6, store6, next6); \
v7: \
	CSRSTRIP(BD7, LDD7, CLR7, ROWD7, STD7, row7, first7, entry7, store7, next7); \
v8: \
	CSRSTRIP(BD8, LDD8, CLR8, ROWD8, STD8, row8, first8, entry8, store8, next8); \
v5m: \
	CSRSTRIP(BD5M, LDD5M, CLR5, ROWD5, STD5M, row5m, first5m, entry5m, store5m, next5m); \
v6m: \
	CSRSTRIP(BD6M, LDD6M, CLR6, ROWD6, STD6M, row6m, first6m, entry6m, store6m, next6m); \
v7m: \
	CSRSTRIP(BD7M, LDD7M, CLR7, ROWD7, STD7M, row7m, first7m, entry7m, store7m, next7m); \
v8m: \
	CSRSTRIP(BD8M, LDD8M, CLR8, ROWD8, STD8M, row8m, first8m, entry8m, store8m, next8m)

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

// AVX2: four float64 to a YMM vector, the tail mask in Y14, at most four
// vectors to a row: the two rows' sums are SUM0–SUM3 and SUM8–SUM11.
#define LANES 4
#define LOG2 2
#define O1 32
#define O2 64
#define O3 96
#define SUM0 Y0
#define SUM1 Y1
#define SUM2 Y2
#define SUM3 Y3
#define SUM8 Y4
#define SUM9 Y5
#define SUM10 Y6
#define SUM11 Y7
#define BV0 Y8
#define BV1 Y9
#define BV2 Y10
#define BV3 Y11
#define SCL Y12
#define PRD Y13
#define VZERO(r) VXORPS r, r, r
#define MLOAD(addr, r) VMASKMOVPD addr, Y14, r
#define MSTORE(r, addr) VMASKMOVPD r, Y14, addr
#define TAILMASK \
	NEGQ    CX; \
	LEAQ    tileMask<>+32(SB), DX; \
	VMOVDQU (DX)(CX*8), Y14
#define PICK(a1, a2, a3, a4, a5, a6, a7, a8, wide) \
	CMPQ    BX, $2; \
	JLT     a1; \
	JEQ     a2; \
	CMPQ    BX, $3; \
	JEQ     a3; \
	JMP     a4

// func tileStripF64(dst *float64, ldd int, s *float64, sRow int, sK int, b *float64, ldb int, rows int, w int, k int, load bool, skip bool)
TEXT ·tileStripF64(SB), NOSPLIT, $0-82
	TILESTRIP

done:
	VZEROUPPER
	RET

// func csrStripF64(dst *float64, ldd int, ptr *int, idx *int, val *float64, b *float64, ldb int, rows int, w int, lim int, bRows int, load bool) bool
TEXT ·csrStripF64(SB), NOSPLIT, $0-97
	CSRTILESTRIP

ok:
	MOVB $1, ret+96(FP)
	VZEROUPPER
	RET

bad:
	MOVB $0, ret+96(FP)
	VZEROUPPER
	RET

#undef LANES
#undef LOG2
#undef O1
#undef O2
#undef O3
#undef SUM0
#undef SUM1
#undef SUM2
#undef SUM3
#undef SUM8
#undef SUM9
#undef SUM10
#undef SUM11
#undef BV0
#undef BV1
#undef BV2
#undef BV3
#undef SCL
#undef PRD
#undef VZERO
#undef MLOAD
#undef MSTORE
#undef TAILMASK
#undef PICK

// AVX-512: eight float64 to a ZMM vector, the tail mask in K1, up to eight
// vectors to a row (KMOVW and VPXORQ keep the bodies to AVX512F).
#define LANES 8
#define LOG2 3
#define O1 64
#define O2 128
#define O3 192
#define O4 256
#define O5 320
#define O6 384
#define O7 448
#define SUM0 Z0
#define SUM1 Z1
#define SUM2 Z2
#define SUM3 Z3
#define SUM4 Z4
#define SUM5 Z5
#define SUM6 Z6
#define SUM7 Z7
#define SUM8 Z8
#define SUM9 Z9
#define SUM10 Z10
#define SUM11 Z11
#define SUM12 Z12
#define SUM13 Z13
#define SUM14 Z14
#define SUM15 Z15
#define BV0 Z16
#define BV1 Z17
#define BV2 Z18
#define BV3 Z19
#define BV4 Z20
#define BV5 Z21
#define BV6 Z22
#define BV7 Z23
#define SCL Z24
#define PRD Z25
#define VZERO(r) VPXORQ r, r, r
#define MLOAD(addr, r) VMOVUPD.Z addr, K1, r
#define MSTORE(r, addr) VMOVUPD r, K1, addr
#define TAILMASK \
	MOVL    $1, DX; \
	SHLL    CX, DX; \
	DECL    DX; \
	KMOVW   DX, K1
#define PICK(a1, a2, a3, a4, a5, a6, a7, a8, wide) \
	CMPQ    BX, $4; \
	JGT     wide; \
	CMPQ    BX, $2; \
	JLT     a1; \
	JEQ     a2; \
	CMPQ    BX, $3; \
	JEQ     a3; \
	JMP     a4; \
wide: \
	CMPQ    BX, $6; \
	JLT     a5; \
	JEQ     a6; \
	CMPQ    BX, $7; \
	JEQ     a7; \
	JMP     a8

// func tileStripF64AVX512(dst *float64, ldd int, s *float64, sRow int, sK int, b *float64, ldb int, rows int, w int, k int, load bool, skip bool)
TEXT ·tileStripF64AVX512(SB), NOSPLIT, $0-82
	TILESTRIP
	TILEWIDE

done:
	VZEROUPPER
	RET

// func csrStripF64AVX512(dst *float64, ldd int, ptr *int, idx *int, val *float64, b *float64, ldb int, rows int, w int, lim int, bRows int, load bool) bool
TEXT ·csrStripF64AVX512(SB), NOSPLIT, $0-97
	CSRTILESTRIP
	CSRWIDE

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
