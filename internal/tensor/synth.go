package tensor

import (
	"encoding/binary"
	"math"
)

// NormalRow writes one synthesised feature row into dst as little-endian
// float32 bytes: value j is cen[j] + BoxMuller(u[2j], u[2j+1]), where u
// holds the row's NormUniforms pairs in stream order. The bytes are the
// per-value loop's (normalRowGo), bit for bit, on every GOARCH (DESIGN.md
// §7.7). dst needs 4*len(cen) bytes and u 2*len(cen) values.
func NormalRow(dst []byte, cen []float32, u []float64) {
	n := len(cen)
	if n == 0 {
		return
	}
	_ = u[2*n-1]
	_ = dst[4*n-1]
	normalRow(dst, cen, u)
}

// normalRowGo is the portable kernel: one BoxMuller per value. On amd64
// it serves an odd last value and is BenchmarkNormalRow's baseline.
func normalRowGo(dst []byte, cen []float32, u []float64) {
	for j, cj := range cen {
		f := cj + BoxMuller(u[2*j], u[2*j+1])
		binary.LittleEndian.PutUint32(dst[4*j:], math.Float32bits(f))
	}
}
