#include "textflag.h"

// The kernel's constants, each in both float64 lanes (or all four int32
// lanes) of one 16-byte entry. Entries load with MOVUPD, so the table
// needs no alignment.
#define K2(off, bits) \
	DATA normalConsts<>+(off)(SB)/8, $bits; \
	DATA normalConsts<>+(off+8)(SB)/8, $bits

// math.Log (log_amd64.s)
#define MANT   0   // 0x000FFFFFFFFFFFFF: Frexp's mantissa bits
#define HALF   16  // 0.5, also Frexp's exponent for [0.5, 1)
#define BIAS   32  // 0x3FE as int64: Frexp's exponent bias
#define HSQRT2 48
#define ONE    64
#define TWO    80
#define LN2HI  96
#define LN2LO  112
#define L1     128
#define L2     144
#define L3     160
#define L4     176
#define L5     192
#define L6     208
#define L7     224
// BoxMuller
#define NEG2   240 // -2
#define TWOPI  256 // 2*math.Pi
// math.cos (sin.go)
#define FOURPI 272 // 4/math.Pi
#define PI4A   288
#define PI4B   304
#define PI4C   320
#define S0     336 // _sin
#define S1     352
#define S2     368
#define S3     384
#define S4     400
#define S5     416
#define C0     432 // _cos
#define C1     448
#define C2     464
#define C3     480
#define C4     496
#define C5     512
#define INT1   528 // 1 in every int32 lane
#define SIGN   544 // the float64 sign bit

K2(MANT, 0x000FFFFFFFFFFFFF)
K2(HALF, 0x3FE0000000000000)
K2(BIAS, 0x00000000000003FE)
K2(HSQRT2, 0x3FE6A09E667F3BCD)
K2(ONE, 0x3FF0000000000000)
K2(TWO, 0x4000000000000000)
K2(LN2HI, 0x3FE62E42FEE00000)
K2(LN2LO, 0x3DEA39EF35793C76)
K2(L1, 0x3FE5555555555593)
K2(L2, 0x3FD999999997FA04)
K2(L3, 0x3FD2492494229359)
K2(L4, 0x3FCC71C51D8E78AF)
K2(L5, 0x3FC7466496CB03DE)
K2(L6, 0x3FC39A09D078C69F)
K2(L7, 0x3FC2F112DF3E5244)
K2(NEG2, 0xC000000000000000)
K2(TWOPI, 0x401921FB54442D18)
K2(FOURPI, 0x3FF45F306DC9C883)
K2(PI4A, 0x3FE921FB40000000)
K2(PI4B, 0x3E64442D00000000)
K2(PI4C, 0x3CE8469898CC5170)
K2(S0, 0x3DE5D8FD1FD19CCD)
K2(S1, 0xBE5AE5E5A9291F5D)
K2(S2, 0x3EC71DE3567D48A1)
K2(S3, 0xBF2A01A019BFDF03)
K2(S4, 0x3F8111111110F7D0)
K2(S5, 0xBFC5555555555548)
K2(C0, 0xBDA8FA49A0861A9B)
K2(C1, 0x3E21EE9D7B4E3F05)
K2(C2, 0xBE927E4F7EAC4BC6)
K2(C3, 0x3EFA01A019C844F5)
K2(C4, 0xBF56C16C16C14F91)
K2(C5, 0x3FA555555555554B)
K2(INT1, 0x0000000100000001)
K2(SIGN, 0x8000000000000000)
GLOBL normalConsts<>(SB), RODATA|NOPTR, $560

// OP applies op to the table entry at off and register r, through X10.
#define OP(op, off, r) \
	MOVUPD normalConsts<>+(off)(SB), X10; \
	op     X10, r

// HORNER steps the polynomial in acc one coefficient on: acc = acc*zz + c.
#define HORNER(acc, zz, c) \
	MULPD zz, acc; \
	OP(ADDPD, c, acc)

// func normalRowSSE2(dst []byte, cen []float32, u []float64)
//
// Each step takes the pairs (u1, u2) of two values and writes their two
// float32s. Comments quote the Go that each group of instructions
// computes, and each floating-point instruction is one of that Go's
// scalar operations, on both lanes, in Go's order.
TEXT ·normalRowSSE2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ cen_base+24(FP), SI
	MOVQ cen_len+32(FP), CX
	MOVQ u_base+48(FP), DX
	SHRQ $1, CX // steps
	JZ   done
	MOVUPD normalConsts<>+ONE(SB), X11  // 1, used four times a step
	MOVUPD normalConsts<>+HALF(SB), X12 // 0.5, used three times

step:
	MOVUPD   0(DX), X0
	MOVUPD   16(DX), X1
	MOVAPD   X0, X2
	UNPCKLPD X1, X0 // u1 of both values
	UNPCKHPD X1, X2 // u2 of both values

	// math.Log(u1). u1 lies in [2⁻⁵³, 1): positive and normal, so none
	// of archLog's special cases applies.
	// f1, ki := Frexp(u1); k := float64(ki)
	MOVAPD   X0, X1
	PSRLQ    $52, X1
	OP(PSUBQ, BIAS, X1)
	PSHUFD   $0x08, X1, X1
	CVTPL2PD X1, X1 // k
	OP(ANDPD, MANT, X0)
	ORPD     X12, X0 // f1
	// if !(Sqrt2/2 < f1) { k -= 1; f1 *= 2 }, archLog's cmpnlt
	MOVUPD normalConsts<>+HSQRT2(SB), X3
	CMPPD  X0, X3, 5
	ANDPD  X11, X3 // 1 or 0
	SUBPD  X3, X1
	ADDPD  X11, X3 // 2 or 1
	MULPD  X3, X0
	// f := f1 - 1
	SUBPD X11, X0
	// s := f / (2 + f)
	MOVUPD normalConsts<>+TWO(SB), X3
	ADDPD  X0, X3
	MOVAPD X0, X4
	DIVPD  X3, X4 // s
	// s2 := s * s; s4 := s2 * s2
	MOVAPD X4, X5
	MULPD  X5, X5 // s2
	MOVAPD X5, X6
	MULPD  X6, X6 // s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	MOVUPD normalConsts<>+L7(SB), X7
	HORNER(X7, X6, L5)
	HORNER(X7, X6, L3)
	HORNER(X7, X6, L1)
	MULPD  X7, X5 // t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	MOVUPD normalConsts<>+L6(SB), X7
	HORNER(X7, X6, L4)
	HORNER(X7, X6, L2)
	MULPD  X7, X6 // t2
	// R := t1 + t2
	ADDPD  X6, X5
	// hfsq := 0.5 * f * f
	MOVAPD X12, X3
	MULPD  X0, X3
	MULPD  X0, X3
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	ADDPD  X3, X5
	MULPD  X5, X4
	MOVUPD normalConsts<>+LN2LO(SB), X5
	MULPD  X1, X5
	ADDPD  X5, X4
	SUBPD  X4, X3
	SUBPD  X0, X3
	OP(MULPD, LN2HI, X1)
	SUBPD  X3, X1 // log(u1)

	// math.Sqrt(-2 * log(u1))
	OP(MULPD, NEG2, X1)
	SQRTPD X1, X1

	// math.cos(x), x = 2π·u2 in [0, 2π], below reduceThreshold.
	OP(MULPD, TWOPI, X2) // x
	// j := uint64(x * (4 / Pi)); y := float64(j); if j&1 == 1 { j++; y++ }
	MOVUPD    normalConsts<>+FOURPI(SB), X3
	MULPD     X2, X3
	CVTTPD2PL X3, X3 // j, in int32 lanes 0 and 1
	MOVUPD    normalConsts<>+INT1(SB), X4
	PAND      X3, X4
	PADDL     X4, X3 // j, even
	CVTPL2PD  X3, X4 // y
	// z := ((x - y*PI4A) - y*PI4B) - y*PI4C
	MOVUPD normalConsts<>+PI4A(SB), X5
	MULPD  X4, X5
	SUBPD  X5, X2
	MOVUPD normalConsts<>+PI4B(SB), X5
	MULPD  X4, X5
	SUBPD  X5, X2
	MOVUPD normalConsts<>+PI4C(SB), X5
	MULPD  X4, X5
	SUBPD  X5, X2 // z
	// j is 0, 2, 4, 6 or 8. cos's branches take the sine polynomial when
	// bit 1 is set (j&7 is 2 or 6) and negate when bits 1 and 2 differ
	// (2 or 4). With j copied into both halves of its lane, bit 31 of
	// either half holds a bit of j after a shift left by 30.
	PSHUFD $0x50, X3, X3
	MOVO   X3, X4
	PSLLL  $30, X4
	PSRAL  $31, X4 // all ones where the sine polynomial applies
	MOVO   X3, X5
	PSRLL  $1, X5
	PXOR   X5, X3
	PSLLL  $30, X3
	OP(PAND, SIGN, X3) // the sign to XOR in
	// zz := z * z
	MOVAPD X2, X5
	MULPD  X5, X5
	// z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	MOVUPD normalConsts<>+S0(SB), X6
	HORNER(X6, X5, S1)
	HORNER(X6, X5, S2)
	HORNER(X6, X5, S3)
	HORNER(X6, X5, S4)
	HORNER(X6, X5, S5)
	MOVAPD X2, X7
	MULPD  X5, X7
	MULPD  X6, X7
	ADDPD  X2, X7 // sine polynomial
	// 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	MOVUPD normalConsts<>+C0(SB), X6
	HORNER(X6, X5, C1)
	HORNER(X6, X5, C2)
	HORNER(X6, X5, C3)
	HORNER(X6, X5, C4)
	HORNER(X6, X5, C5)
	MOVAPD X5, X8
	MULPD  X5, X8
	MULPD  X6, X8
	MOVAPD X12, X6
	MULPD  X5, X6
	MOVAPD X11, X9
	SUBPD  X6, X9
	ADDPD  X8, X9 // cosine polynomial
	// pick by octant, then if sign { y = -y }
	ANDPD  X4, X7
	ANDNPD X9, X4
	ORPD   X7, X4
	XORPD  X3, X4 // cos(x)

	// cen[j] + float32(sqrt * cos), stored little-endian
	MULPD    X4, X1
	CVTPD2PS X1, X1
	MOVSD    (SI), X5
	ADDPS    X5, X1
	MOVSD    X1, (DI)

	ADDQ $32, DX
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  step

done:
	RET
