#include "textflag.h"

// OPERAND loads operand c = BX: AX = the address of its b row at the
// current block (R13 + ks[c]*stride bytes) and X4 = as[c] in every lane.
#define OPERAND \
	MOVLQSX (SI)(BX*4), AX; \
	IMULQ   R10, AX; \
	ADDQ    R13, AX; \
	MOVSS   (R8)(BX*4), X4; \
	SHUFPS  $0x00, X4, X4

// MADD adds the product of X4 and the four lanes at off(AX) into acc,
// through the scratch register tmp.
#define MADD(off, tmp, acc) \
	MOVUPS off(AX), tmp; \
	MULPS  X4, tmp; \
	ADDPS  tmp, acc

// func rowKernelSSE2(o []float32, ks []int32, as []float32, b []float32, stride int)
//
// The operand loops test their count at the bottom, so len(ks) must be at
// least one; rowKernel returns before calling with an empty list.
TEXT ·rowKernelSSE2(SB), NOSPLIT, $0-104
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ ks_base+24(FP), SI
	MOVQ ks_len+32(FP), DX
	MOVQ as_base+48(FP), R8
	MOVQ b_base+72(FP), R9
	MOVQ stride+96(FP), R10
	SHLQ $2, R10 // b row stride in bytes
	SHLQ $2, CX  // o length in bytes
	XORQ R11, R11 // byte offset of the current block in o and in a b row

block32:
	LEAQ 128(R11), AX
	CMPQ AX, CX
	JGT  block16
	MOVUPS 0(DI)(R11*1), X0
	MOVUPS 16(DI)(R11*1), X1
	MOVUPS 32(DI)(R11*1), X2
	MOVUPS 48(DI)(R11*1), X3
	MOVUPS 64(DI)(R11*1), X9
	MOVUPS 80(DI)(R11*1), X10
	MOVUPS 96(DI)(R11*1), X11
	MOVUPS 112(DI)(R11*1), X12
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX

op32:
	OPERAND
	MADD(0, X5, X0)
	MADD(16, X6, X1)
	MADD(32, X7, X2)
	MADD(48, X8, X3)
	MADD(64, X13, X9)
	MADD(80, X14, X10)
	MADD(96, X15, X11)
	MADD(112, X5, X12)
	INCQ BX
	CMPQ BX, DX
	JLT  op32
	MOVUPS X0, 0(DI)(R11*1)
	MOVUPS X1, 16(DI)(R11*1)
	MOVUPS X2, 32(DI)(R11*1)
	MOVUPS X3, 48(DI)(R11*1)
	MOVUPS X9, 64(DI)(R11*1)
	MOVUPS X10, 80(DI)(R11*1)
	MOVUPS X11, 96(DI)(R11*1)
	MOVUPS X12, 112(DI)(R11*1)
	ADDQ $128, R11
	JMP  block32

block16: // at most once: fewer than 32 lanes are left
	LEAQ 64(R11), AX
	CMPQ AX, CX
	JGT  block4
	MOVUPS 0(DI)(R11*1), X0
	MOVUPS 16(DI)(R11*1), X1
	MOVUPS 32(DI)(R11*1), X2
	MOVUPS 48(DI)(R11*1), X3
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX

op16:
	OPERAND
	MADD(0, X5, X0)
	MADD(16, X6, X1)
	MADD(32, X7, X2)
	MADD(48, X8, X3)
	INCQ BX
	CMPQ BX, DX
	JLT  op16
	MOVUPS X0, 0(DI)(R11*1)
	MOVUPS X1, 16(DI)(R11*1)
	MOVUPS X2, 32(DI)(R11*1)
	MOVUPS X3, 48(DI)(R11*1)
	ADDQ $64, R11

block4:
	LEAQ 16(R11), AX
	CMPQ AX, CX
	JGT  lane1
	MOVUPS (DI)(R11*1), X0
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX

op4:
	OPERAND
	MADD(0, X5, X0)
	INCQ BX
	CMPQ BX, DX
	JLT  op4
	MOVUPS X0, (DI)(R11*1)
	ADDQ $16, R11
	JMP  block4

lane1:
	CMPQ R11, CX
	JGE  done
	MOVSS (DI)(R11*1), X0
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX

op1:
	MOVLQSX (SI)(BX*4), AX
	IMULQ   R10, AX
	MOVSS   (R13)(AX*1), X5
	MULSS   (R8)(BX*4), X5
	ADDSS   X5, X0
	INCQ BX
	CMPQ BX, DX
	JLT  op1
	MOVSS X0, (DI)(R11*1)
	ADDQ $4, R11
	JMP  lane1

done:
	RET
