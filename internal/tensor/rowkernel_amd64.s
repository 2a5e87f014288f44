#include "textflag.h"

// OPERAND loads operand c = BX: AX = the address of its b row at the
// current block (R13 + ks[c]*stride bytes) and Y15 = as[c] in every lane.
#define OPERAND \
	MOVLQSX      (SI)(BX*4), AX; \
	IMULQ        R10, AX; \
	ADDQ         R13, AX; \
	VBROADCASTSS (R8)(BX*4), Y15

// MADD adds the product of Y15 and the eight lanes at off(AX) into acc,
// through the scratch register tmp: one rounded multiply, one rounded add.
#define MADD(off, tmp, acc) \
	VMULPS off(AX), Y15, tmp; \
	VADDPS tmp, acc, acc

// func rowKernelAVX(o []float32, ks []int32, as []float32, b []float32, stride int)
//
// The operand loops test their count at the bottom, so len(ks) must be at
// least one; rowKernel returns before calling with an empty list. Every
// instruction is VEX-encoded, and VZEROUPPER clears the upper halves
// before returning to SSE code.
TEXT ·rowKernelAVX(SB), NOSPLIT, $0-104
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ ks_base+24(FP), SI
	MOVQ ks_len+32(FP), DX
	MOVQ as_base+48(FP), R8
	MOVQ b_base+72(FP), R9
	MOVQ stride+96(FP), R10
	SHLQ $2, R10  // b row stride in bytes
	SHLQ $2, CX   // o length in bytes
	XORQ R11, R11 // byte offset of the current block in o and in a b row

block64:
	LEAQ 256(R11), AX
	CMPQ AX, CX
	JGT  block16
	VMOVUPS 0(DI)(R11*1), Y0
	VMOVUPS 32(DI)(R11*1), Y1
	VMOVUPS 64(DI)(R11*1), Y2
	VMOVUPS 96(DI)(R11*1), Y3
	VMOVUPS 128(DI)(R11*1), Y4
	VMOVUPS 160(DI)(R11*1), Y5
	VMOVUPS 192(DI)(R11*1), Y6
	VMOVUPS 224(DI)(R11*1), Y7
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX
	// The hot loop starts on a 32-byte boundary. The padding also sets
	// the package's text size, and with it where the benchmark's
	// reference kernel lands (DESIGN.md §7.7).
	PCALIGN $32

op64:
	OPERAND
	MADD(0, Y8, Y0)
	MADD(32, Y9, Y1)
	MADD(64, Y10, Y2)
	MADD(96, Y11, Y3)
	MADD(128, Y12, Y4)
	MADD(160, Y13, Y5)
	MADD(192, Y14, Y6)
	MADD(224, Y8, Y7)
	INCQ BX
	CMPQ BX, DX
	JLT  op64
	VMOVUPS Y0, 0(DI)(R11*1)
	VMOVUPS Y1, 32(DI)(R11*1)
	VMOVUPS Y2, 64(DI)(R11*1)
	VMOVUPS Y3, 96(DI)(R11*1)
	VMOVUPS Y4, 128(DI)(R11*1)
	VMOVUPS Y5, 160(DI)(R11*1)
	VMOVUPS Y6, 192(DI)(R11*1)
	VMOVUPS Y7, 224(DI)(R11*1)
	ADDQ $256, R11
	JMP  block64

block16: // up to three times: fewer than 64 lanes are left
	LEAQ 64(R11), AX
	CMPQ AX, CX
	JGT  block8
	VMOVUPS 0(DI)(R11*1), Y0
	VMOVUPS 32(DI)(R11*1), Y1
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX

op16:
	OPERAND
	MADD(0, Y8, Y0)
	MADD(32, Y9, Y1)
	INCQ BX
	CMPQ BX, DX
	JLT  op16
	VMOVUPS Y0, 0(DI)(R11*1)
	VMOVUPS Y1, 32(DI)(R11*1)
	ADDQ $64, R11
	JMP  block16

block8: // at most once: fewer than 16 lanes are left
	LEAQ 32(R11), AX
	CMPQ AX, CX
	JGT  block4
	VMOVUPS (DI)(R11*1), Y0
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX

op8:
	OPERAND
	MADD(0, Y8, Y0)
	INCQ BX
	CMPQ BX, DX
	JLT  op8
	VMOVUPS Y0, (DI)(R11*1)
	ADDQ $32, R11

block4: // at most once, in the low 128 bits: fewer than 8 lanes are left
	LEAQ 16(R11), AX
	CMPQ AX, CX
	JGT  lane1
	VMOVUPS (DI)(R11*1), X0
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX

op4:
	OPERAND
	VMULPS (AX), X15, X8
	VADDPS X8, X0, X0
	INCQ BX
	CMPQ BX, DX
	JLT  op4
	VMOVUPS X0, (DI)(R11*1)
	ADDQ $16, R11

lane1:
	CMPQ R11, CX
	JGE  done
	VMOVSS (DI)(R11*1), X0
	LEAQ (R9)(R11*1), R13
	XORQ BX, BX

op1:
	MOVLQSX (SI)(BX*4), AX
	IMULQ   R10, AX
	VMOVSS  (R13)(AX*1), X8
	VMULSS  (R8)(BX*4), X8, X8
	VADDSS  X8, X0, X0
	INCQ BX
	CMPQ BX, DX
	JLT  op1
	VMOVSS X0, (DI)(R11*1)
	ADDQ $4, R11
	JMP  lane1

done:
	VZEROUPPER
	RET

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
