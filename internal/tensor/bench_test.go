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
	benchShape(b, form, 1747, 128, 64, zeroShare)
}

// benchShape times one matmul form on an m x n output with inner length k.
func benchShape(b *testing.B, form, m, k, n int, zeroShare float64) {
	f := matmulForms[form]
	x, w := f.operands(NewRNG(2), m, k, n, zeroShare)
	out := New(m, n)
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

// The tenant shapes are a gnnserved job's first layer at hidden 16 over
// dense dim-128 features: its forward a·b (1747 x 128 -> 16) and its
// weight gradient aᵀ·b (128 x 16, summed over 1747 rows). Their 16-lane
// output rows run the amd64 kernel's 16-lane block.
func BenchmarkMatMulTenantShape(b *testing.B)   { benchShape(b, 0, 1747, 128, 16, 0) }
func BenchmarkMatMulT1TenantShape(b *testing.B) { benchShape(b, 1, 128, 1747, 16, 0) }

func BenchmarkLogSoftmax(b *testing.B) {
	rng := NewRNG(3)
	m := benchMatrix(rng, 1000, 172)
	out := New(1000, 172)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LogSoftmaxInto(out, m)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(5)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
