package tensor

// rowKernel runs the SSE2 kernel after checking, in Go, every index it
// will touch: the assembly itself checks nothing. The largest b offset is
// the last operand's row, because ks ascends.
func rowKernel(o []float32, ks []int32, as []float32, b []float32, stride int) {
	if len(o) == 0 || len(ks) == 0 {
		return
	}
	_ = as[len(ks)-1]
	_ = b[int(ks[0])*stride]
	_ = b[int(ks[len(ks)-1])*stride+len(o)-1]
	rowKernelSSE2(o, ks, as, b, stride)
}

// rowKernelSSE2 is the row kernel in SSE2, baseline on every amd64 CPU.
// It keeps 32 lanes of o in eight registers across the whole operand list
// (eight independent add chains), then 16 in four, then 4 in one, then one
// lane at a time, so each element is loaded and stored once per call. A
// MULPS/ADDPS lane rounds exactly like the MULSS/ADDSS Go emits for
// `o[j] += a*b`.
//
//go:noescape
func rowKernelSSE2(o []float32, ks []int32, as []float32, b []float32, stride int)
