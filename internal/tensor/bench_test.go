package tensor

import (
	"fmt"
	"testing"
)

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
	for b.Loop() {
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
	for b.Loop() {
		LogSoftmaxInto(out, m)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(5)
	for b.Loop() {
		_ = r.Uint64()
	}
}

// BenchmarkNormalRow times one feature row of gen's synthesis, at
// file_packed_verify's dim 100 and Papers' dim 128, through NormalRow and
// through the per-value BoxMuller loop it replaces. Rows cycle through
// 1 MiB of uniforms, as large as a chunk's in gen: a loop over one row
// would teach the branch predictor math.cos's octants.
func BenchmarkNormalRow(b *testing.B) {
	for _, n := range []int{100, 128} {
		rng := NewRNG(9)
		cen := make([]float32, n)
		for j := range cen {
			cen[j] = float32(rng.Float64() - 0.5)
		}
		rows := (1 << 20) / (16 * n)
		u := make([]float64, 2*n*rows)
		for i := 0; i < len(u); i += 2 {
			u[i], u[i+1] = rng.NormUniforms()
		}
		dst := make([]byte, 4*n)
		for _, k := range []struct {
			name string
			row  func(dst []byte, cen []float32, u []float64)
		}{{"kernel", NormalRow}, {"loop", normalRowGo}} {
			b.Run(fmt.Sprintf("dim=%d/%s", n, k.name), func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					k.row(dst, cen, u[2*n*(i%rows):])
					i++
				}
			})
		}
	}
}
