//go:build !purego

#include "textflag.h"

// AVX2 bodies of the row-lane log-softmax (activation.go), one group of four
// rows at a time, each YMM lane carrying one row through the Go loops'
// operations in their order, column by column: the forward is
// logSoftmaxRow — mx = fv > mx ? fv : mx, sum = exp(v − mx) + sum,
// lse = log(sum) + mx, dst = v − lse — and the backward
// logSoftmaxBackwardRows — gsum = gsum + g, then dst = g − exp(y)·gsum, the
// multiply rounded before the subtract. Each add and multiply takes its
// operands in the order the plain build of the Go loops gives them, which
// decides the payload where two NaNs meet (the backward's gsum; a -race
// build adds the other way round, see twoNaNsMeet).
//
// exp and log are math.Exp and math.Log bit for bit, not approximations:
// EXP replays the FMA path of math's archExp (exp_amd64.s) and LOG math's
// archLog (log_amd64.s) lane by lane — the same constants, parsed from the
// same literals, and the same operations in the same order, the FMAs fused
// where archExp fuses them and nowhere else. The caller runs them only where
// math itself takes that path (AVX2 and FMA, see cpu_amd64.s). Each covers
// its routine's normal path only: a lane whose exp argument is NaN, ±Inf,
// above Overflow or whose k + 1023 falls outside (0, 0x7FF), or whose log
// argument is not finite and positive, would leave it, and its group is
// handed back to the Go loops. The group decides that before it stores
// anything — dst may alias z, grad or y — so the Go loop sees the rows as
// they came. The forward decides after its exp pass, the backward in its
// first pass, which tests the exp arguments without computing them.
//
// Each routine runs groups of four rows of cols columns, row stride cols,
// from the first, and returns how many it completed: fewer than groups when
// it stops before one it hands back. The callers (logsoftmax_amd64.go) have
// checked the bounds and cols, groups > 0.
//
// Registers: DI/SI the group's dst and source rows (the backward's grad in
// SI and y in R14), R8/R9/R10 one, three and four row strides in bytes, R11
// cols, BX groups, AX the groups done, CX the columns left, DX/R12/R13 the
// column cursors. Y15 the rows' max, Y14 their sum (gsum), then lse, Y13 the
// lanes off the fast path; EXP and LOG work in Y0–Y6.

// Four copies of one float64, a YMM memory operand.
#define CONST4(name, val) \
	DATA name<>+0(SB)/8, val; \
	DATA name<>+8(SB)/8, val; \
	DATA name<>+16(SB)/8, val; \
	DATA name<>+24(SB)/8, val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(one, $1.0)
CONST4(two, $2.0)
CONST4(half, $0.5)
CONST4(negInf, $0xfff0000000000000)
CONST4(posInf, $0x7ff0000000000000)

// archExp's constants (exp_amd64.s: LOG2E, LN2U, LN2L, and exprodata's
// Taylor coefficients 1/3! … 1/8!; 1/2!, 1 and 2 are half, one and two).
CONST4(expLog2e, $1.4426950408889634073599246810018920)
CONST4(expLn2U, $0.69314718055966295651160180568695068359375)
CONST4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(expSixteenth, $0.0625)
CONST4(expC3, $1.6666666666666666667e-1)
CONST4(expC4, $4.1666666666666666667e-2)
CONST4(expC5, $8.3333333333333333333e-3)
CONST4(expC6, $1.3888888888888888889e-3)
CONST4(expC7, $1.9841269841269841270e-4)
CONST4(expC8, $2.4801587301587301587e-5)

// The bounds of archExp's normal path on k, and 2^52 + 1023: added to k, its
// low bits are k + 1023, the biased exponent of 2^k.
CONST4(expKMin, $-1022.0)
CONST4(expKMax, $1023.0)
CONST4(expBias, $0x43300000000003ff)

// archLog's constants (log_amd64.s), its mantissa mask, and the two halves
// of the int-to-float conversion of its exponent: 0x433 above the biased
// exponent e is the float64 2^52 + e, and 2^52 + 0x3FE subtracted from it
// leaves k = e − 0x3FE exactly.
CONST4(logHSqrt2, $7.07106781186547524401e-01)
CONST4(logLn2Hi, $6.93147180369123816490e-01)
CONST4(logLn2Lo, $1.90821492927058770002e-10)
CONST4(logL1, $6.666666666666735130e-01)
CONST4(logL2, $3.999999999940941908e-01)
CONST4(logL3, $2.857142874366239149e-01)
CONST4(logL4, $2.222219843214978396e-01)
CONST4(logL5, $1.818357216161805012e-01)
CONST4(logL6, $1.531383769920937332e-01)
CONST4(logL7, $1.479819860511658591e-01)
CONST4(logMant, $0x000fffffffffffff)
CONST4(logExpHigh, $0x4330000000000000)
CONST4(logKBias, $0x43300000000003fe)

// EXPK: Y1 = k, archExp's CVTSD2SL of x·LOG2E (rounded to nearest, and
// 0x80000000 where it does not fit) as a float64, for x in Y0. X2 holds k as
// an int32.
#define EXPK \
	VMULPD     expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD  X2, Y1

// EXPCHECK: sets in Y13 the lanes off archExp's normal path, those whose k
// (Y1, from EXPK) is below −1022 (k + 1023 ≤ 0: a subnormal or zero result,
// and every NaN, ±Inf or far argument, which convert to 0x80000000) or above
// 1023 (k + 1023 ≥ 0x7FF: an overflow, and every argument above Overflow,
// whose x·LOG2E rounds to at least 1024). Clobbers Y2.
#define EXPCHECK \
	VCMPPD $1, expKMin<>(SB), Y1, Y2; \
	VORPD  Y2, Y13, Y13; \
	VCMPPD $0x1e, expKMax<>(SB), Y1, Y2; \
	VORPD  Y2, Y13, Y13

// EXPBODY: Y0 = exp(x) by archExp's FMA path, for x in Y0 and k in Y1 (from
// EXPK): x − k·LN2U − k·LN2L fused, times 1/16, the Taylor series by fused
// Horner steps, four squarings of the form y·(y + 2), the last one fused
// with its + 1, and the scale by 2^k. Clobbers Y2 and Y3.
#define EXPBODY \
	VADDPD       expBias<>(SB), Y1, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VFNMADD231PD expLn2U<>(SB), Y1, Y0; \
	VFNMADD231PD expLn2L<>(SB), Y1, Y0; \
	VMULPD       expSixteenth<>(SB), Y0, Y0; \
	VMOVUPD      expC8<>(SB), Y3; \
	VFMADD213PD  expC7<>(SB), Y0, Y3; \
	VFMADD213PD  expC6<>(SB), Y0, Y3; \
	VFMADD213PD  expC5<>(SB), Y0, Y3; \
	VFMADD213PD  expC4<>(SB), Y0, Y3; \
	VFMADD213PD  expC3<>(SB), Y0, Y3; \
	VFMADD213PD  half<>(SB), Y0, Y3; \
	VFMADD213PD  one<>(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y3; \
	VFMADD213PD  one<>(SB), Y3, Y0; \
	VMULPD       Y2, Y0, Y0

// LOGCHECK: sets in Y13 the lanes of Y0 off archLog's normal path: those
// whose bits, as a signed integer, are not in (0, +Inf) — ±0, negatives,
// +Inf and NaN. Clobbers Y1 and Y2.
#define LOGCHECK \
	VPXOR    Y1, Y1, Y1; \
	VPCMPGTQ Y1, Y0, Y1; \
	VMOVDQU  posInf<>(SB), Y2; \
	VPCMPGTQ Y0, Y2, Y2; \
	VPAND    Y1, Y2, Y2; \
	VPCMPEQQ Y1, Y1, Y1; \
	VPXOR    Y1, Y2, Y2; \
	VPOR     Y2, Y13, Y13

// LOG: Y0 = log(x) by archLog, for x in Y0 on its normal path: x = f1·2^k
// with f1 in [1/2, 1); where f1 ≤ √2/2 (CMPSD predicate 5, not-less-than,
// with √2/2 first) k − 1 and 2·f1; then f = f1 − 1, s = f/(2 + f) and the
// polynomial, every step a separate multiply, add or divide. Clobbers Y1–Y6.
#define LOG \
	VANDPD    logMant<>(SB), Y0, Y2; \
	VORPD     half<>(SB), Y2, Y2; \
	VPSRLQ    $52, Y0, Y1; \
	VPADDQ    logExpHigh<>(SB), Y1, Y1; \
	VSUBPD    logKBias<>(SB), Y1, Y1; \
	VMOVUPD   logHSqrt2<>(SB), Y3; \
	VCMPPD    $5, Y2, Y3, Y3; \
	VANDPD    one<>(SB), Y3, Y3; \
	VSUBPD    Y3, Y1, Y1; \
	VADDPD    one<>(SB), Y3, Y3; \
	VMULPD    Y3, Y2, Y2; \
	VSUBPD    one<>(SB), Y2, Y2; \
	VADDPD    two<>(SB), Y2, Y3; \
	VDIVPD    Y3, Y2, Y3; \
	VMULPD    Y3, Y3, Y4; \
	VMULPD    Y4, Y4, Y5; \
	VMULPD    logL7<>(SB), Y5, Y6; \
	VADDPD    logL5<>(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    logL3<>(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    logL1<>(SB), Y6, Y6; \
	VMULPD    Y6, Y4, Y4; \
	VMULPD    logL6<>(SB), Y5, Y6; \
	VADDPD    logL4<>(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    logL2<>(SB), Y6, Y6; \
	VMULPD    Y6, Y5, Y5; \
	VADDPD    Y5, Y4, Y4; \
	VMULPD    half<>(SB), Y2, Y6; \
	VMULPD    Y2, Y6, Y6; \
	VADDPD    Y6, Y4, Y4; \
	VMULPD    Y4, Y3, Y3; \
	VMULPD    logLn2Lo<>(SB), Y1, Y4; \
	VADDPD    Y4, Y3, Y3; \
	VSUBPD    Y3, Y6, Y6; \
	VSUBPD    Y2, Y6, Y6; \
	VMULPD    logLn2Hi<>(SB), Y1, Y1; \
	VSUBPD    Y6, Y1, Y0

// Column j of the group's four rows, from p at row 0, into the float64 lanes
// of y (x its low half, t scratch), and back.
#define GATHERD(p, y, x, t) \
	VMOVSD      (p), x; \
	VMOVHPD     (p)(R8*1), x, x; \
	VMOVSD      (p)(R8*2), t; \
	VMOVHPD     (p)(R9*1), t, t; \
	VINSERTF128 $1, t, y, y

#define SCATTERD(p, y, x, t) \
	VMOVSD       x, (p); \
	VMOVHPD      x, (p)(R8*1); \
	VEXTRACTF128 $1, y, t; \
	VMOVSD       t, (p)(R8*2); \
	VMOVHPD      t, (p)(R9*1)

// The strides, the column count and the group count; ELEM the element size.
#define STRIDES(ELEM, colsArg, groupsArg) \
	MOVQ colsArg, R11; \
	MOVQ groupsArg, BX; \
	LEAQ (R11*ELEM), R8; \
	LEAQ (R8)(R8*2), R9; \
	LEAQ (R8*4), R10; \
	XORQ AX, AX

// The forward over z in SI into dst in DI, three passes per group: the max,
// the exp sum (and the fallback decision), the stores.
#define FORWARD(GATHER, SCATTER, ELEM) \
	MOVQ         dst+0(FP), DI; \
	MOVQ         z+8(FP), SI; \
	STRIDES(ELEM, cols+16(FP), groups+24(FP)); \
group: \
	VMOVUPD      negInf<>(SB), Y15; \
	MOVQ         SI, DX; \
	MOVQ         R11, CX; \
max: \
	GATHER(DX, Y0, X0, X1); \
	VMAXPD       Y15, Y0, Y15; \
	ADDQ         $ELEM, DX; \
	DECQ         CX; \
	JNZ          max; \
	VXORPD       Y14, Y14, Y14; \
	VXORPD       Y13, Y13, Y13; \
	MOVQ         SI, DX; \
	MOVQ         R11, CX; \
sum: \
	GATHER(DX, Y0, X0, X1); \
	VSUBPD       Y15, Y0, Y0; \
	EXPK; \
	EXPCHECK; \
	EXPBODY; \
	VADDPD       Y14, Y0, Y14; \
	ADDQ         $ELEM, DX; \
	DECQ         CX; \
	JNZ          sum; \
	VMOVAPD      Y14, Y0; \
	LOGCHECK; \
	VMOVMSKPD    Y13, DX; \
	TESTL        DX, DX; \
	JNZ          done; \
	LOG; \
	VADDPD       Y15, Y0, Y14; \
	MOVQ         SI, DX; \
	MOVQ         DI, R12; \
	MOVQ         R11, CX; \
store: \
	GATHER(DX, Y0, X0, X1); \
	VSUBPD       Y14, Y0, Y0; \
	SCATTER(R12, Y0, X0, X1); \
	ADDQ         $ELEM, DX; \
	ADDQ         $ELEM, R12; \
	DECQ         CX; \
	JNZ          store; \
	ADDQ         R10, SI; \
	ADDQ         R10, DI; \
	INCQ         AX; \
	CMPQ         AX, BX; \
	JLT          group; \
done: \
	MOVQ         AX, ret+32(FP); \
	VZEROUPPER; \
	RET

// The backward over grad in SI and y in R14 into dst in DI, two passes per
// group: gsum and the exp arguments' test (and the fallback decision), then
// the stores.
#define BACKWARD(GATHER, SCATTER, ELEM) \
	MOVQ         dst+0(FP), DI; \
	MOVQ         grad+8(FP), SI; \
	MOVQ         y+16(FP), R14; \
	STRIDES(ELEM, cols+24(FP), groups+32(FP)); \
group: \
	VXORPD       Y14, Y14, Y14; \
	VXORPD       Y13, Y13, Y13; \
	MOVQ         SI, DX; \
	MOVQ         R14, R12; \
	MOVQ         R11, CX; \
sum: \
	GATHER(DX, Y0, X0, X1); \
	VADDPD       Y0, Y14, Y14; \
	GATHER(R12, Y0, X0, X1); \
	EXPK; \
	EXPCHECK; \
	ADDQ         $ELEM, DX; \
	ADDQ         $ELEM, R12; \
	DECQ         CX; \
	JNZ          sum; \
	VMOVMSKPD    Y13, DX; \
	TESTL        DX, DX; \
	JNZ          done; \
	MOVQ         SI, DX; \
	MOVQ         R14, R12; \
	MOVQ         DI, R13; \
	MOVQ         R11, CX; \
store: \
	GATHER(R12, Y0, X0, X1); \
	EXPK; \
	EXPBODY; \
	VMULPD       Y14, Y0, Y0; \
	GATHER(DX, Y4, X4, X5); \
	VSUBPD       Y0, Y4, Y4; \
	SCATTER(R13, Y4, X4, X5); \
	ADDQ         $ELEM, DX; \
	ADDQ         $ELEM, R12; \
	ADDQ         $ELEM, R13; \
	DECQ         CX; \
	JNZ          store; \
	ADDQ         R10, SI; \
	ADDQ         R10, R14; \
	ADDQ         R10, DI; \
	INCQ         AX; \
	CMPQ         AX, BX; \
	JLT          group; \
done: \
	MOVQ         AX, ret+40(FP); \
	VZEROUPPER; \
	RET

// func lanesForwardF64(dst *float64, z *float64, cols int, groups int) int
TEXT ·lanesForwardF64(SB), NOSPLIT, $0-40
	FORWARD(GATHERD, SCATTERD, 8)

// func lanesBackwardF64(dst *float64, grad *float64, y *float64, cols int, groups int) int
TEXT ·lanesBackwardF64(SB), NOSPLIT, $0-48
	BACKWARD(GATHERD, SCATTERD, 8)

// func expLanes(x *[4]float64) int
//
// EXP on four values in place, with EXPCHECK's lanes off the fast path
// returned as a bit mask (whose lanes hold no meaningful value): the probe
// the tests hold to math.Exp.
TEXT ·expLanes(SB), NOSPLIT, $0-16
	MOVQ      x+0(FP), AX
	VMOVUPD   (AX), Y0
	VXORPD    Y13, Y13, Y13
	EXPK
	EXPCHECK
	EXPBODY
	VMOVUPD   Y0, (AX)
	VMOVMSKPD Y13, BX
	MOVQ      BX, ret+8(FP)
	VZEROUPPER
	RET

// func logLanes(x *[4]float64) int
//
// LOG on four values in place, with LOGCHECK's lanes returned as a bit mask:
// the probe the tests hold to math.Log.
TEXT ·logLanes(SB), NOSPLIT, $0-16
	MOVQ      x+0(FP), AX
	VMOVUPD   (AX), Y0
	VXORPD    Y13, Y13, Y13
	LOGCHECK
	LOG
	VMOVUPD   Y0, (AX)
	VMOVMSKPD Y13, BX
	MOVQ      BX, ret+8(FP)
	VZEROUPPER
	RET
