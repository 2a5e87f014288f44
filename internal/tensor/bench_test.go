package tensor

import "testing"

func benchMatrix(rng *RNG, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32()
	}
	return m
}

// benchForm times one matmul form on the shape of a GraphSAGE layer over
// a sampled batch (1747 nodes, 128 -> 64), dense and with the ≈ 50 % exact
// zeros a post-ReLU activation has.
func benchForm(b *testing.B, form int, zeroShare float64) {
	f := matmulForms[form]
	x, w := f.operands(NewRNG(2), 1747, 128, 64, zeroShare)
	out := New(1747, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.into(out, x, w)
	}
}

func BenchmarkMatMulBatchShape(b *testing.B)       { benchForm(b, 0, 0) }
func BenchmarkMatMulBatchShapeReLU(b *testing.B)   { benchForm(b, 0, 0.5) }
func BenchmarkMatMulT1BatchShape(b *testing.B)     { benchForm(b, 1, 0) }
func BenchmarkMatMulT1BatchShapeReLU(b *testing.B) { benchForm(b, 1, 0.5) }
func BenchmarkMatMulT2BatchShape(b *testing.B)     { benchForm(b, 2, 0) }

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
