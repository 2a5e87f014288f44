//go:build !amd64

package tensor

// normalRow is the portable kernel on every GOARCH without assembly.
func normalRow(dst []byte, cen []float32, u []float64) {
	normalRowGo(dst, cen, u)
}
