package tensor

import (
	"fmt"
	"math"
	"runtime"
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

// matmulForm is one of the three products under test: which operand of an
// m x k x n problem it stores transposed, the production kernel (on amd64
// the assembly) and the reference.
type matmulForm struct {
	name           string
	transA, transB bool // a is k x m, b is n x k
	into, ref      func(out, a, b *Matrix)
	skipsZeroes    bool
}

var matmulForms = []matmulForm{
	{
		name: "MatMulInto",
		into: MatMulInto,
		ref: func(out, a, b *Matrix) {
			out.Zero()
			refMatMulRange(out, a, b, 0, a.Rows)
		},
		skipsZeroes: true,
	},
	{
		name:        "MatMulT1Into",
		transA:      true,
		into:        MatMulT1Into,
		ref:         refMatMulT1Into,
		skipsZeroes: true,
	},
	{
		name:   "MatMulT2Into",
		transB: true,
		into:   MatMulT2Into,
		ref:    func(out, a, b *Matrix) { refMatMulT2Range(out, a, b, 0, a.Rows) },
	},
}

// aAt and bAt address the a operand of output row i and the b operand of
// output column j at inner index k, whichever way the form stores them.
func (f matmulForm) aAt(a *Matrix, i, k int) *float32 {
	if f.transA {
		return &a.Data[k*a.Cols+i]
	}
	return &a.Data[i*a.Cols+k]
}

func (f matmulForm) bAt(b *Matrix, k, j int) *float32 {
	if f.transB {
		return &b.Data[j*b.Cols+k]
	}
	return &b.Data[k*b.Cols+j]
}

// rowGo computes the product with one portable rowKernelGo call per output
// row over the row's whole operand list, where the production forms split
// it into kBlock lists: the portable side of the kernel differential.
func (f matmulForm) rowGo(out, a, b *Matrix) {
	inner := a.Cols
	if f.transA {
		inner = a.Rows
	}
	if f.transB {
		bt := New(b.Cols, b.Rows)
		for j := 0; j < b.Rows; j++ {
			for k := 0; k < b.Cols; k++ {
				bt.Set(k, j, b.At(j, k))
			}
		}
		b = bt
	}
	out.Zero()
	for i := 0; i < out.Rows; i++ {
		var ks []int32
		var as []float32
		for k := 0; k < inner; k++ {
			if av := *f.aAt(a, i, k); av != 0 || !f.skipsZeroes {
				ks, as = append(ks, int32(k)), append(as, av)
			}
		}
		rowKernelGo(out.Row(i), ks, as, b.Data, b.Cols)
	}
}

// operands builds the a and b of an m x k x n problem. zeroShare of a's
// elements are exact zeros (half of them -0), as after a ReLU.
func (f matmulForm) operands(rng *RNG, m, k, n int, zeroShare float64) (a, b *Matrix) {
	ar, ac, br, bc := m, k, k, n
	if f.transA {
		ar, ac = k, m
	}
	if f.transB {
		br, bc = n, k
	}
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

// checkBitIdentical runs the production kernel, the reference and the
// portable row kernel into destinations dirtied with different garbage
// and compares every output element's bits.
func (f matmulForm) checkBitIdentical(t *testing.T, a, b *Matrix, m, n int) {
	t.Helper()
	got, want, rowGo := New(m, n), New(m, n), New(m, n)
	fill(got, float32(math.NaN()))
	fill(want, 77)
	fill(rowGo, -1)
	f.into(got, a, b)
	f.ref(want, a, b)
	f.rowGo(rowGo, a, b)
	for i := range want.Data {
		w := math.Float32bits(want.Data[i])
		for _, side := range []struct {
			name string
			m    *Matrix
		}{{"kernel", got}, {"portable row kernel", rowGo}} {
			if g := math.Float32bits(side.m.Data[i]); g != w {
				t.Fatalf("%s %dx%dx%d: the %s's element (%d,%d) has bits %#08x (%v), reference %#08x (%v)",
					f.name, m, len(a.Data)/m, n, side.name, i/n, i%n, g, side.m.Data[i], w, want.Data[i])
			}
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
					*f.aAt(a, i, k0) = 0
				}
			}
			*f.bAt(b, 2, n/2) = float32(math.Inf(1))
			*f.bAt(b, k-1, 0) = float32(math.NaN())
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
// call. A collection runs before every measured call, so scratch that a GC
// may drop counts as the allocation it costs after every GC: a sync.Pool,
// for one, allocates its per-P storage afresh. testing.AllocsPerRun runs at
// GOMAXPROCS 1, so no call is split: after a GC, a split call's blocking
// waits take fresh wait records from the runtime whatever the kernels do.
func TestMatMulIntoZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const m, k, n = 256, 64, 48 // 786 432 multiply-adds, above the threshold
	rng := NewRNG(9)
	for _, f := range matmulForms {
		a, b := f.operands(rng, m, k, n, 0.5)
		out := New(m, n)
		if got := testing.AllocsPerRun(20, func() {
			runtime.GC()
			f.into(out, a, b)
		}); got != 0 {
			t.Errorf("%s allocates %v times per call, want 0", f.name, got)
		}
	}
}
