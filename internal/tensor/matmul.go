package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// matmulParallelThreshold is the FLOP count below which MatMul runs on the
// calling goroutine; small mini-batch layers do not amortize fan-out.
const matmulParallelThreshold = 1 << 18

// MatMul returns a*b. a is MxK, b is KxN, result is MxN.
// Large products are split across rows of a over GOMAXPROCS goroutines.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", a.Cols, b.Rows))
	}
	out := New(a.Rows, b.Cols)
	matMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a*b into caller-owned storage (out must be
// MxN and may hold stale data; it is zeroed first). Layers that run every
// mini-batch use this with a reusable scratch matrix to keep the training
// hot path allocation-free.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner dims %d vs %d", a.Cols, b.Rows))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto out %v want %dx%d", out, a.Rows, b.Cols))
	}
	out.Zero()
	matMulInto(out, a, b)
}

func matMulInto(out, a, b *Matrix) {
	flops := a.Rows * a.Cols * b.Cols
	workers := runtime.GOMAXPROCS(0)
	if flops < matmulParallelThreshold || workers == 1 || a.Rows == 1 {
		matMulRange(out, a, b, 0, a.Rows)
		return
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulRange computes rows [lo,hi) of out = a*b with an ikj loop order
// that streams b row-wise for cache friendliness.
func matMulRange(out, a, b *Matrix, lo, hi int) {
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

// MatMulT1 returns aᵀ*b: a is KxM, b is KxN, result is MxN.
// Used for weight gradients (Xᵀ·dY).
func MatMulT1(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulT1Into(out, a, b)
	return out
}

// MatMulT1Into computes out = aᵀ*b into caller-owned storage (out must
// be MxN and may hold stale data; it is zeroed first).
func MatMulT1Into(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT1 outer dims %d vs %d", a.Rows, b.Rows))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT1Into out %v want %dx%d", out, a.Cols, b.Cols))
	}
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

// MatMulT2 returns a*bᵀ: a is MxK, b is NxK, result is MxN.
// Used for input gradients (dY·Wᵀ).
func MatMulT2(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulT2Into(out, a, b)
	return out
}

// MatMulT2Into computes out = a*bᵀ into caller-owned storage. Every
// element of out is overwritten, so stale contents are fine and no
// zeroing pass is needed.
func MatMulT2Into(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT2 inner dims %d vs %d", a.Cols, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT2Into out %v want %dx%d", out, a.Rows, b.Rows))
	}
	workers := runtime.GOMAXPROCS(0)
	flops := a.Rows * a.Cols * b.Rows
	if flops < matmulParallelThreshold || workers == 1 || a.Rows == 1 {
		matMulT2Range(out, a, b, 0, a.Rows)
		return
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulT2Range(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func matMulT2Range(out, a, b *Matrix, lo, hi int) {
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
