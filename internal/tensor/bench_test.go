package tensor

import "testing"

func benchMatrix(rng *RNG, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32()
	}
	return m
}

func BenchmarkMatMul256(b *testing.B) {
	rng := NewRNG(1)
	x := benchMatrix(rng, 256, 256)
	y := benchMatrix(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulBatchShape(b *testing.B) {
	// The shape of one conv layer on a sampled batch: 2k nodes x 128 -> 256.
	rng := NewRNG(2)
	x := benchMatrix(rng, 2000, 128)
	w := benchMatrix(rng, 128, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, w)
	}
}

func BenchmarkLogSoftmax(b *testing.B) {
	rng := NewRNG(3)
	m := benchMatrix(rng, 1000, 172)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LogSoftmax(m)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(5)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
