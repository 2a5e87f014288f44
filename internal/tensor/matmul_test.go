package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"gnndrive/internal/storage/storagetest"
)

// The three reference loops are the kernels as they stood before they were
// re-tiled, moved here verbatim. They define the summation order the
// production kernels must reproduce bit for bit.

func refMatMulRange(out, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func refMatMulT1Into(out, a, b *Matrix) {
	out.Zero()
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : i*n+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func refMatMulT2Range(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float32
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// matmulForm is one of the three products under test: the shapes of its
// operands for an m x k x n problem, the production kernel and the
// reference.
type matmulForm struct {
	name        string
	aRows       func(m, k int) (int, int)
	bRows       func(k, n int) (int, int)
	into        func(out, a, b *Matrix)
	ref         func(out, a, b *Matrix)
	skipsZeroes bool
}

var matmulForms = []matmulForm{
	{
		name:  "MatMulInto",
		aRows: func(m, k int) (int, int) { return m, k },
		bRows: func(k, n int) (int, int) { return k, n },
		into:  MatMulInto,
		ref: func(out, a, b *Matrix) {
			out.Zero()
			refMatMulRange(out, a, b, 0, a.Rows)
		},
		skipsZeroes: true,
	},
	{
		name:        "MatMulT1Into",
		aRows:       func(m, k int) (int, int) { return k, m },
		bRows:       func(k, n int) (int, int) { return k, n },
		into:        MatMulT1Into,
		ref:         refMatMulT1Into,
		skipsZeroes: true,
	},
	{
		name:  "MatMulT2Into",
		aRows: func(m, k int) (int, int) { return m, k },
		bRows: func(k, n int) (int, int) { return n, k },
		into:  MatMulT2Into,
		ref:   func(out, a, b *Matrix) { refMatMulT2Range(out, a, b, 0, a.Rows) },
	},
}

// operands builds the a and b of an m x k x n problem. zeroShare of a's
// elements are exact zeros (half of them -0), as after a ReLU.
func (f matmulForm) operands(rng *RNG, m, k, n int, zeroShare float64) (a, b *Matrix) {
	ar, ac := f.aRows(m, k)
	br, bc := f.bRows(k, n)
	a, b = randomMatrix(rng, ar, ac), randomMatrix(rng, br, bc)
	negZero := float32(math.Copysign(0, -1))
	for i := range a.Data {
		if rng.Float64() < zeroShare {
			a.Data[i] = 0
			if rng.Float64() < 0.5 {
				a.Data[i] = negZero
			}
		}
	}
	return a, b
}

// checkBitIdentical runs kernel and reference into destinations dirtied
// with different garbage and compares every output element's bits.
func (f matmulForm) checkBitIdentical(t *testing.T, a, b *Matrix, m, n int) {
	t.Helper()
	got, want := New(m, n), New(m, n)
	fill(got, float32(math.NaN()))
	fill(want, 77)
	f.into(got, a, b)
	f.ref(want, a, b)
	for i := range want.Data {
		if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
			t.Fatalf("%s %dx%dx%d: element (%d,%d) has bits %#08x (%v), reference %#08x (%v)",
				f.name, m, a.Rows*a.Cols/m, n, i/n, i%n, g, got.Data[i], w, want.Data[i])
		}
	}
}

// matmulShapes straddles matmulParallelThreshold (1<<18 multiply-adds)
// and every tile edge: the four-wide accumulator and operand groups, the
// 16-row T1 tile, and a share boundary that is not a tile multiple.
var matmulShapes = [][3]int{
	{1, 1, 1}, {1, 3, 5}, {3, 1, 1}, {3, 5, 1}, {5, 3, 63}, {4, 4, 4}, {5, 5, 5},
	{17, 9, 33}, {63, 65, 3}, {65, 63, 5}, {63, 63, 63}, // 250 047 < threshold
	{64, 64, 64}, {65, 65, 65}, {1, 600, 600}, {600, 600, 1}, {2, 512, 512},
	{33, 130, 67}, {128, 5, 700}, {700, 128, 64},
	{1747, 128, 64}, // one GraphSAGE layer on a sampled batch
}

func TestMatMulBitIdenticalToReference(t *testing.T) {
	for _, f := range matmulForms {
		for _, zeroShare := range []float64{0, 0.5, 0.97} {
			for si, s := range matmulShapes {
				m, k, n := s[0], s[1], s[2]
				if testing.Short() && m*k*n > 1<<22 {
					continue
				}
				rng := NewRNG(uint64(1000*si) + uint64(zeroShare*100))
				a, b := f.operands(rng, m, k, n, zeroShare)
				f.checkBitIdentical(t, a, b, m, n)
			}
		}
	}
}

func TestMatMulBitIdenticalSeededRandomShapes(t *testing.T) {
	rng := NewRNG(24)
	for trial := 0; trial < 60; trial++ {
		m, k, n := 1+rng.Intn(90), 1+rng.Intn(90), 1+rng.Intn(90)
		if trial%4 == 0 {
			m += 400 // above the threshold for most k, n
		}
		for _, f := range matmulForms {
			a, b := f.operands(rng, m, k, n, rng.Float64())
			f.checkBitIdentical(t, a, b, m, n)
		}
	}
}

// TestMatMulZeroSkipHidesNonFinite plants +Inf and NaN in b where every a
// operand that would meet them is zero. The reference never multiplies
// them, so the result is finite; a kernel that drops the skip in a fused
// group would turn the output into NaN (0*Inf).
func TestMatMulZeroSkipHidesNonFinite(t *testing.T) {
	for _, f := range matmulForms {
		if !f.skipsZeroes {
			continue
		}
		for _, s := range [][3]int{{9, 11, 7}, {130, 64, 65}} {
			m, k, n := s[0], s[1], s[2]
			rng := NewRNG(uint64(m))
			a, b := f.operands(rng, m, k, n, 0.3)
			// b's row k0 meets a's inner index k0 in both skipping forms.
			for _, k0 := range []int{2, k - 1} {
				for i := 0; i < m; i++ {
					if f.name == "MatMulT1Into" {
						a.Set(k0, i, 0)
					} else {
						a.Set(i, k0, 0)
					}
				}
			}
			b.Set(2, n/2, float32(math.Inf(1)))
			b.Set(k-1, 0, float32(math.NaN()))
			f.checkBitIdentical(t, a, b, m, n)
			out := New(m, n)
			f.into(out, a, b)
			for i, v := range out.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s %v: element %d is %v, the zero skip leaked a non-finite b", f.name, s, i, v)
				}
			}
		}
	}
}

// TestMatMulConcurrentCallersSharePool has eight goroutines — more than
// the pool has workers — multiply at parallel sizes at once, as gnnserved
// tenants do. Each must get its own bit-exact result and none may wait on
// another forever (run under -race in CI).
func TestMatMulConcurrentCallersSharePool(t *testing.T) {
	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := NewRNG(uint64(100 + g))
			for round := 0; round < 6; round++ {
				f := matmulForms[(g+round)%len(matmulForms)]
				m, k, n := 150+rng.Intn(100), 40+rng.Intn(40), 40+rng.Intn(40)
				a, b := f.operands(rng, m, k, n, 0.5)
				got, want := New(m, n), New(m, n)
				f.into(got, a, b)
				f.ref(want, a, b)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						errs <- fmt.Errorf("caller %d round %d: %s %dx%dx%d differs at %d", g, round, f.name, m, k, n, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMatMulIntoZeroAlloc pins the three forms at zero allocations per
// call at a size that takes the pool.
func TestMatMulIntoZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m, k, n = 256, 64, 48 // 786 432 multiply-adds, above the threshold
	rng := NewRNG(9)
	for _, f := range matmulForms {
		a, b := f.operands(rng, m, k, n, 0.5)
		out := New(m, n)
		f.into(out, a, b) // warm-up: the first call makes the pooled WaitGroup
		if got := testing.AllocsPerRun(50, func() { f.into(out, a, b) }); got != 0 {
			t.Errorf("%s allocates %v times per call, want 0", f.name, got)
		}
	}
}
