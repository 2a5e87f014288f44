package tensor

// The row kernel is the one inner loop of every matmul form (DESIGN.md
// §7.6). It adds a list of operands into one output row:
//
//	for c := range ks { for j := range o { o[j] += as[c] * b[ks[c]*stride+j] } }
//
// so each o[j] receives one float32 multiply and one add per operand, in
// list order. The forms differ only in how they build the list. ks must
// ascend: the amd64 bounds check reads its last entry as its largest.
//
// rowKernel is the AVX assembly on an amd64 CPU with AVX
// (rowkernel_amd64.s) and rowKernelGo everywhere else, amd64 without AVX
// included; on amd64 rowKernelGo is also the differential reference the
// tests hold the assembly to.

// rowKernelGo is the portable row kernel. Four operands at a time go
// through one pass over o: each element is loaded once, receives the four
// products in list order, and is stored once, the same four roundings as
// four single passes.
func rowKernelGo(o []float32, ks []int32, as []float32, b []float32, stride int) {
	as = as[:len(ks)]
	c := 0
	for ; c+4 <= len(ks); c += 4 {
		a0, a1, a2, a3 := as[c], as[c+1], as[c+2], as[c+3]
		b0 := b[int(ks[c])*stride:][:len(o)]
		b1 := b[int(ks[c+1])*stride:][:len(o)]
		b2 := b[int(ks[c+2])*stride:][:len(o)]
		b3 := b[int(ks[c+3])*stride:][:len(o)]
		for j := range o {
			s := o[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			o[j] = s
		}
	}
	for ; c < len(ks); c++ {
		av := as[c]
		bc := b[int(ks[c])*stride:][:len(o)]
		for j := range o {
			o[j] += av * bc[j]
		}
	}
}
