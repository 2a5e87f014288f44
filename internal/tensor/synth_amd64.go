package tensor

// normalRow runs the SSE2 kernel over the row's pairs of values and
// BoxMuller itself over an odd last one. NormalRow has already checked
// every index: the assembly checks nothing.
func normalRow(dst []byte, cen []float32, u []float64) {
	even := len(cen) &^ 1
	if even > 0 {
		normalRowSSE2(dst, cen[:even], u)
	}
	if even < len(cen) {
		normalRowGo(dst[4*even:], cen[even:], u[2*even:])
	}
}

// normalRowSSE2 is the kernel in SSE2, baseline on every amd64 CPU: two
// values per step, one in each float64 lane, through lane-wise copies of
// math.Log's amd64 assembly and math.cos's Cody–Waite path. len(cen) must
// be even. Every packed instruction rounds each lane as its scalar form
// does, and the octant branches of math.cos become masks, so the bytes
// are BoxMuller's.
//
//go:noescape
func normalRowSSE2(dst []byte, cen []float32, u []float64)
