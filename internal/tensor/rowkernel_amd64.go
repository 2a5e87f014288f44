package tensor

// useAVX is fixed at package init: the AVX kernel where the CPU and the
// OS support it, the portable kernel on any other amd64 CPU.
var useAVX = avxMissing() == ""

// rowKernel runs the AVX kernel after checking, in Go, every index it
// will touch: the assembly itself checks nothing. The largest b offset is
// the last operand's row, because ks ascends.
func rowKernel(o []float32, ks []int32, as []float32, b []float32, stride int) {
	if !useAVX {
		rowKernelGo(o, ks, as, b, stride)
		return
	}
	if len(o) == 0 || len(ks) == 0 {
		return
	}
	_ = as[len(ks)-1]
	_ = b[int(ks[0])*stride]
	_ = b[int(ks[len(ks)-1])*stride+len(o)-1]
	rowKernelAVX(o, ks, as, b, stride)
}

// avxMissing names the first CPUID or XCR0 bit the AVX kernel needs that
// this machine does not set, or returns "" when it sets them all: the CPU
// has AVX and the OS saves the YMM registers (XSAVE enabled, XCR0 holding
// both SSE and AVX state). OSXSAVE goes first, because without it XGETBV
// faults.
func avxMissing() string {
	ecx := cpuidECX1()
	switch {
	case ecx&(1<<27) == 0:
		return "CPUID.1:ECX bit 27 (OSXSAVE)"
	case ecx&(1<<28) == 0:
		return "CPUID.1:ECX bit 28 (AVX)"
	case xcr0()&6 != 6:
		return "XCR0 bits 1-2 (SSE and AVX state)"
	}
	return ""
}

// rowKernelAVX is the row kernel in AVX (no FMA, which rounds once). It
// keeps 64 lanes of o in eight YMM registers across the whole operand
// list (eight independent add chains), then 16 in two, 8 in one, 4 in
// one XMM register, then one lane at a time, so each element is loaded
// and stored once per call. Each VMULPS/VADDPS lane rounds exactly like
// the MULSS/ADDSS Go emits for `o[j] += a*b`.
//
//go:noescape
func rowKernelAVX(o []float32, ks []int32, as []float32, b []float32, stride int)

// cpuidECX1 returns ECX of CPUID leaf 1, the feature bits.
func cpuidECX1() uint32

// xcr0 returns the low half of XCR0 (XGETBV with ECX = 0), the register
// state the OS saves. Call it only when CPUID reports OSXSAVE.
func xcr0() uint32
