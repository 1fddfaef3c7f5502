//go:build !purego

#include "textflag.h"

// AVX2 bodies of the register-tiled GEMM entry (tile.go), one column strip
// per call: for every row ρ < rows and column c < w,
//
//	dst[ρ·ldd + c] = (load ? dst[ρ·ldd + c] : +0) + Σ_kk s[ρ·sRow + kk·sK]·b[kk·ldb + c]
//
// over kk = 0 … k-1 in ascending order, skipping a term exactly where
// s != 0 is false (±0; never NaN) when skip is set. Two rows at a time keep
// their w ≤ 16 float64 (32 float32) running sums in eight YMM registers
// from the first k-step to the store, so each output element is loaded and
// stored once per call instead of once per four k-steps. Every element
// receives the IEEE operations of the Go body (gemmTile) in its order: one
// multiply and one add per unskipped term, never a fused multiply-add, with
// the operand order of axpy_amd64.s (b first in the multiply, the product
// first in the add); a skipped term runs no add into the sum (see STRIP).
// The strip's last vector is loaded and stored under a lane mask when w is
// not a whole number of vectors; an odd last row runs as a pair of two
// copies of itself, which compute the same bits and store them to the same
// place. Nothing outside the rows × w window of dst is written and nothing
// outside the operands is read. The caller (tile_amd64.go) has checked the
// bounds and rows, w > 0.
//
// Registers: DI/SI the pair's first dst row and first scale, R12/R13 the
// byte offsets of its second (0 when the pair is one row twice), R11 the
// second dst row, DX the scale cursor, BX the B cursor, CX the k-steps left,
// AX the rows left, R9/R10 the k strides of s and b in bytes, R14 1 when
// skip is off, R8 scratch. Y0–Y3 and Y4–Y7 the two rows' sums, Y8–Y11 the
// k-step's B vectors, Y12 the broadcast scale, Y13 the product (and, after
// the masked add, the new sum), Y14 the tail mask, Y15 the row's
// scale-nonzero mask.

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

// The zero test: falls through to the term unless skip is set and the scale
// at addr is ±0 (its bits shifted left by one are zero).
#define TESTD(addr, skiplbl) \
	MOVQ addr, R8; \
	ADDQ R8, R8; \
	ORQ  R14, R8; \
	JZ   skiplbl

#define TESTS(addr, skiplbl) \
	MOVL addr, R8; \
	ADDL R8, R8; \
	ORL  R14, R8; \
	JZ   skiplbl

// One B vector times the broadcast scale, added into a running sum; the B
// forms keep the sum where the row's mask (Y15) is clear.
#define MADD(bv, acc) \
	VMULPD Y12, bv, Y13; \
	VADDPD acc, Y13, acc

#define MADS(bv, acc) \
	VMULPS Y12, bv, Y13; \
	VADDPS acc, Y13, acc

#define MADDB(bv, acc) \
	VMULPD    Y12, bv, Y13; \
	VADDPD    acc, Y13, Y13; \
	VBLENDVPD Y15, Y13, acc, acc

#define MADSB(bv, acc) \
	VMULPS    Y12, bv, Y13; \
	VADDPS    acc, Y13, Y13; \
	VBLENDVPS Y15, Y13, acc, acc

// One row's term, one to four vectors wide.
#define ROWD1(a0, a1, a2, a3) MADD(Y8, a0)
#define ROWD2(a0, a1, a2, a3) ROWD1(a0, a1, a2, a3); MADD(Y9, a1)
#define ROWD3(a0, a1, a2, a3) ROWD2(a0, a1, a2, a3); MADD(Y10, a2)
#define ROWD4(a0, a1, a2, a3) ROWD3(a0, a1, a2, a3); MADD(Y11, a3)
#define ROWS1(a0, a1, a2, a3) MADS(Y8, a0)
#define ROWS2(a0, a1, a2, a3) ROWS1(a0, a1, a2, a3); MADS(Y9, a1)
#define ROWS3(a0, a1, a2, a3) ROWS2(a0, a1, a2, a3); MADS(Y10, a2)
#define ROWS4(a0, a1, a2, a3) ROWS3(a0, a1, a2, a3); MADS(Y11, a3)
#define ROWDB1(a0, a1, a2, a3) MADDB(Y8, a0)
#define ROWDB2(a0, a1, a2, a3) ROWDB1(a0, a1, a2, a3); MADDB(Y9, a1)
#define ROWDB3(a0, a1, a2, a3) ROWDB2(a0, a1, a2, a3); MADDB(Y10, a2)
#define ROWDB4(a0, a1, a2, a3) ROWDB3(a0, a1, a2, a3); MADDB(Y11, a3)
#define ROWSB1(a0, a1, a2, a3) MADSB(Y8, a0)
#define ROWSB2(a0, a1, a2, a3) ROWSB1(a0, a1, a2, a3); MADSB(Y9, a1)
#define ROWSB3(a0, a1, a2, a3) ROWSB2(a0, a1, a2, a3); MADSB(Y10, a2)
#define ROWSB4(a0, a1, a2, a3) ROWSB3(a0, a1, a2, a3); MADSB(Y11, a3)

// The k-step's B vectors; the M forms load the last one under the mask.
#define BD1 VMOVUPD (BX), Y8
#define BD2 BD1; VMOVUPD 32(BX), Y9
#define BD3 BD2; VMOVUPD 64(BX), Y10
#define BD4 BD3; VMOVUPD 96(BX), Y11
#define BD1M VMASKMOVPD (BX), Y14, Y8
#define BD2M BD1; VMASKMOVPD 32(BX), Y14, Y9
#define BD3M BD2; VMASKMOVPD 64(BX), Y14, Y10
#define BD4M BD3; VMASKMOVPD 96(BX), Y14, Y11
#define BS1 VMOVUPS (BX), Y8
#define BS2 BS1; VMOVUPS 32(BX), Y9
#define BS3 BS2; VMOVUPS 64(BX), Y10
#define BS4 BS3; VMOVUPS 96(BX), Y11
#define BS1M VMASKMOVPS (BX), Y14, Y8
#define BS2M BS1; VMASKMOVPS 32(BX), Y14, Y9
#define BS3M BS2; VMASKMOVPS 64(BX), Y14, Y10
#define BS4M BS3; VMASKMOVPS 96(BX), Y14, Y11

// A row's running sums from dst at r.
#define LDD1(r, a0, a1, a2, a3) VMOVUPD (r), a0
#define LDD2(r, a0, a1, a2, a3) LDD1(r, a0, a1, a2, a3); VMOVUPD 32(r), a1
#define LDD3(r, a0, a1, a2, a3) LDD2(r, a0, a1, a2, a3); VMOVUPD 64(r), a2
#define LDD4(r, a0, a1, a2, a3) LDD3(r, a0, a1, a2, a3); VMOVUPD 96(r), a3
#define LDD1M(r, a0, a1, a2, a3) VMASKMOVPD (r), Y14, a0
#define LDD2M(r, a0, a1, a2, a3) LDD1(r, a0, a1, a2, a3); VMASKMOVPD 32(r), Y14, a1
#define LDD3M(r, a0, a1, a2, a3) LDD2(r, a0, a1, a2, a3); VMASKMOVPD 64(r), Y14, a2
#define LDD4M(r, a0, a1, a2, a3) LDD3(r, a0, a1, a2, a3); VMASKMOVPD 96(r), Y14, a3
#define LDS1(r, a0, a1, a2, a3) VMOVUPS (r), a0
#define LDS2(r, a0, a1, a2, a3) LDS1(r, a0, a1, a2, a3); VMOVUPS 32(r), a1
#define LDS3(r, a0, a1, a2, a3) LDS2(r, a0, a1, a2, a3); VMOVUPS 64(r), a2
#define LDS4(r, a0, a1, a2, a3) LDS3(r, a0, a1, a2, a3); VMOVUPS 96(r), a3
#define LDS1M(r, a0, a1, a2, a3) VMASKMOVPS (r), Y14, a0
#define LDS2M(r, a0, a1, a2, a3) LDS1(r, a0, a1, a2, a3); VMASKMOVPS 32(r), Y14, a1
#define LDS3M(r, a0, a1, a2, a3) LDS2(r, a0, a1, a2, a3); VMASKMOVPS 64(r), Y14, a2
#define LDS4M(r, a0, a1, a2, a3) LDS3(r, a0, a1, a2, a3); VMASKMOVPS 96(r), Y14, a3

// A row's running sums back to dst at r.
#define STD1(r, a0, a1, a2, a3) VMOVUPD a0, (r)
#define STD2(r, a0, a1, a2, a3) STD1(r, a0, a1, a2, a3); VMOVUPD a1, 32(r)
#define STD3(r, a0, a1, a2, a3) STD2(r, a0, a1, a2, a3); VMOVUPD a2, 64(r)
#define STD4(r, a0, a1, a2, a3) STD3(r, a0, a1, a2, a3); VMOVUPD a3, 96(r)
#define STD1M(r, a0, a1, a2, a3) VMASKMOVPD a0, Y14, (r)
#define STD2M(r, a0, a1, a2, a3) STD1(r, a0, a1, a2, a3); VMASKMOVPD a1, Y14, 32(r)
#define STD3M(r, a0, a1, a2, a3) STD2(r, a0, a1, a2, a3); VMASKMOVPD a2, Y14, 64(r)
#define STD4M(r, a0, a1, a2, a3) STD3(r, a0, a1, a2, a3); VMASKMOVPD a3, Y14, 96(r)
#define STS1(r, a0, a1, a2, a3) VMOVUPS a0, (r)
#define STS2(r, a0, a1, a2, a3) STS1(r, a0, a1, a2, a3); VMOVUPS a1, 32(r)
#define STS3(r, a0, a1, a2, a3) STS2(r, a0, a1, a2, a3); VMOVUPS a2, 64(r)
#define STS4(r, a0, a1, a2, a3) STS3(r, a0, a1, a2, a3); VMOVUPS a3, 96(r)
#define STS1M(r, a0, a1, a2, a3) VMASKMOVPS a0, Y14, (r)
#define STS2M(r, a0, a1, a2, a3) STS1(r, a0, a1, a2, a3); VMASKMOVPS a1, Y14, 32(r)
#define STS3M(r, a0, a1, a2, a3) STS2(r, a0, a1, a2, a3); VMASKMOVPS a2, Y14, 64(r)
#define STS4M(r, a0, a1, a2, a3) STS3(r, a0, a1, a2, a3); VMASKMOVPS a3, Y14, 96(r)

// A row's running sums at +0 (all bits clear in either element type).
#define Z1(a0, a1, a2, a3) VXORPS a0, a0, a0
#define Z2(a0, a1, a2, a3) Z1(a0, a1, a2, a3); VXORPS a1, a1, a1
#define Z3(a0, a1, a2, a3) Z2(a0, a1, a2, a3); VXORPS a2, a2, a2
#define Z4(a0, a1, a2, a3) Z3(a0, a1, a2, a3); VXORPS a3, a3, a3

// The strip, two rows at a time, at one vector count: SH is log2 of the
// element size, TEST/CMP/BCAST the element's zero test, compare and
// broadcast, and the rest the vector count's loads, sums and stores. A pair
// runs kloop, which tests each scale and applies its term unmasked, until
// a scale is ±0 with skip set; from that row and k-step on it runs bloop,
// which computes every term into Y13 and blends the new sums in only where
// the scale is not ±0 (VCMPP* predicate 4, not-equal-or-unordered, against
// +0: clear for ±0, set for NaN), so a skipped term leaves the sums as they
// were — a signalling NaN included — and a pair costs at most one
// mispredicted branch however its zeros fall. The seven labels are the
// variant's own; done is shared.
#define STRIP(SH, TEST, CMP, BCAST, BLOAD, LOAD, ZERO, ROW, ROWB, STORE, pair, kinit, kloop, bloop, brow0, brow1, store) \
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
	TEST((DX), brow0); \
	BCAST   (DX), Y12; \
	ROW(Y0, Y1, Y2, Y3); \
	TEST((DX)(R13*1), brow1); \
	BCAST   (DX)(R13*1), Y12; \
	ROW(Y4, Y5, Y6, Y7); \
	ADDQ    R9, DX; \
	ADDQ    R10, BX; \
	DECQ    CX; \
	JNZ     kloop; \
	JMP     store; \
bloop: \
	BLOAD; \
brow0: \
	BCAST   (DX), Y12; \
	CMP     $4, tileMask<>+32(SB), Y12, Y15; \
	ROWB(Y0, Y1, Y2, Y3); \
brow1: \
	BCAST   (DX)(R13*1), Y12; \
	CMP     $4, tileMask<>+32(SB), Y12, Y15; \
	ROWB(Y4, Y5, Y6, Y7); \
	ADDQ    R9, DX; \
	ADDQ    R10, BX; \
	DECQ    CX; \
	JNZ     bloop; \
store: \
	STORE(DI, Y0, Y1, Y2, Y3); \
	STORE(R11, Y4, Y5, Y6, Y7); \
	LEAQ    (DI)(R12*2), DI; \
	LEAQ    (SI)(R13*2), SI; \
	SUBQ    $2, AX; \
	JGT     pair; \
	JMP     done

// The registers every variant starts from (see above); SH is log2 of the
// element size.
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

// func tileStripF64(dst *float64, ldd int, s *float64, sRow int, sK int, b *float64, ldb int, rows int, w int, k int, load bool, skip bool)
TEXT ·tileStripF64(SB), NOSPLIT, $0-82
	PROLOGUE($3)
	MOVQ w+64(FP), BX
	MOVQ BX, CX
	ANDQ $3, CX
	JZ   whole
	NEGQ CX
	LEAQ tileMask<>+32(SB), R8
	VMOVDQU (R8)(CX*8), Y14
	ADDQ $3, BX
	SHRQ $2, BX
	CMPQ BX, $2
	JLT  v1m
	JEQ  v2m
	CMPQ BX, $3
	JEQ  v3m
	JMP  v4m

whole:
	SHRQ $2, BX
	CMPQ BX, $2
	JLT  v1
	JEQ  v2
	CMPQ BX, $3
	JEQ  v3
	JMP  v4

v1:
	STRIP($3, TESTD, VCMPPD, VBROADCASTSD, BD1, LDD1, Z1, ROWD1, ROWDB1, STD1, pair1, kinit1, kloop1, bloop1, browa1, browb1, store1)
v2:
	STRIP($3, TESTD, VCMPPD, VBROADCASTSD, BD2, LDD2, Z2, ROWD2, ROWDB2, STD2, pair2, kinit2, kloop2, bloop2, browa2, browb2, store2)
v3:
	STRIP($3, TESTD, VCMPPD, VBROADCASTSD, BD3, LDD3, Z3, ROWD3, ROWDB3, STD3, pair3, kinit3, kloop3, bloop3, browa3, browb3, store3)
v4:
	STRIP($3, TESTD, VCMPPD, VBROADCASTSD, BD4, LDD4, Z4, ROWD4, ROWDB4, STD4, pair4, kinit4, kloop4, bloop4, browa4, browb4, store4)
v1m:
	STRIP($3, TESTD, VCMPPD, VBROADCASTSD, BD1M, LDD1M, Z1, ROWD1, ROWDB1, STD1M, pair1m, kinit1m, kloop1m, bloop1m, browa1m, browb1m, store1m)
v2m:
	STRIP($3, TESTD, VCMPPD, VBROADCASTSD, BD2M, LDD2M, Z2, ROWD2, ROWDB2, STD2M, pair2m, kinit2m, kloop2m, bloop2m, browa2m, browb2m, store2m)
v3m:
	STRIP($3, TESTD, VCMPPD, VBROADCASTSD, BD3M, LDD3M, Z3, ROWD3, ROWDB3, STD3M, pair3m, kinit3m, kloop3m, bloop3m, browa3m, browb3m, store3m)
v4m:
	STRIP($3, TESTD, VCMPPD, VBROADCASTSD, BD4M, LDD4M, Z4, ROWD4, ROWDB4, STD4M, pair4m, kinit4m, kloop4m, bloop4m, browa4m, browb4m, store4m)

done:
	VZEROUPPER
	RET

// func tileStripF32(dst *float32, ldd int, s *float32, sRow int, sK int, b *float32, ldb int, rows int, w int, k int, load bool, skip bool)
TEXT ·tileStripF32(SB), NOSPLIT, $0-82
	PROLOGUE($2)
	MOVQ w+64(FP), BX
	MOVQ BX, CX
	ANDQ $7, CX
	JZ   whole
	NEGQ CX
	LEAQ tileMask<>+32(SB), R8
	VMOVDQU (R8)(CX*4), Y14
	ADDQ $7, BX
	SHRQ $3, BX
	CMPQ BX, $2
	JLT  v1m
	JEQ  v2m
	CMPQ BX, $3
	JEQ  v3m
	JMP  v4m

whole:
	SHRQ $3, BX
	CMPQ BX, $2
	JLT  v1
	JEQ  v2
	CMPQ BX, $3
	JEQ  v3
	JMP  v4

v1:
	STRIP($2, TESTS, VCMPPS, VBROADCASTSS, BS1, LDS1, Z1, ROWS1, ROWSB1, STS1, pair1, kinit1, kloop1, bloop1, browa1, browb1, store1)
v2:
	STRIP($2, TESTS, VCMPPS, VBROADCASTSS, BS2, LDS2, Z2, ROWS2, ROWSB2, STS2, pair2, kinit2, kloop2, bloop2, browa2, browb2, store2)
v3:
	STRIP($2, TESTS, VCMPPS, VBROADCASTSS, BS3, LDS3, Z3, ROWS3, ROWSB3, STS3, pair3, kinit3, kloop3, bloop3, browa3, browb3, store3)
v4:
	STRIP($2, TESTS, VCMPPS, VBROADCASTSS, BS4, LDS4, Z4, ROWS4, ROWSB4, STS4, pair4, kinit4, kloop4, bloop4, browa4, browb4, store4)
v1m:
	STRIP($2, TESTS, VCMPPS, VBROADCASTSS, BS1M, LDS1M, Z1, ROWS1, ROWSB1, STS1M, pair1m, kinit1m, kloop1m, bloop1m, browa1m, browb1m, store1m)
v2m:
	STRIP($2, TESTS, VCMPPS, VBROADCASTSS, BS2M, LDS2M, Z2, ROWS2, ROWSB2, STS2M, pair2m, kinit2m, kloop2m, bloop2m, browa2m, browb2m, store2m)
v3m:
	STRIP($2, TESTS, VCMPPS, VBROADCASTSS, BS3M, LDS3M, Z3, ROWS3, ROWSB3, STS3M, pair3m, kinit3m, kloop3m, bloop3m, browa3m, browb3m, store3m)
v4m:
	STRIP($2, TESTS, VCMPPS, VBROADCASTSS, BS4M, LDS4M, Z4, ROWS4, ROWSB4, STS4M, pair4m, kinit4m, kloop4m, bloop4m, browa4m, browb4m, store4m)

done:
	VZEROUPPER
	RET
