//go:build !amd64

package tensor

// rowKernel is the portable kernel on every GOARCH without assembly.
func rowKernel(o []float32, ks []int32, as []float32, b []float32, stride int) {
	rowKernelGo(o, ks, as, b, stride)
}
