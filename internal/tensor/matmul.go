package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// The three matmul forms below are the train stage's time. They share one
// numeric contract (DESIGN.md §7.6): every output element receives exactly
// the float32 multiply-adds of the textbook loop — one `acc += a*b` per
// inner index k, ascending k, from +0, and in the two forms that skip them
// nothing at all for an a-operand equal to zero (a NaN or Inf in b under a
// zero a stays hidden). The kernels only re-tile those loops, so results
// are bit-identical to them (they are the references in matmul_test.go),
// and do not depend on how a call was split: an output row is always
// computed whole by one worker.

// matmulParallelThreshold is the FLOP count below which a product runs on
// the calling goroutine; small mini-batch layers do not amortize fan-out.
const matmulParallelThreshold = 1 << 18

// MatMulInto computes out = a*b into caller-owned storage (a is MxK, b is
// KxN, out must be MxN and may hold stale data; it is zeroed first).
// Layers that run every mini-batch use this with a reusable scratch matrix
// to keep the training hot path allocation-free.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner dims %d vs %d", a.Cols, b.Rows))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto out %v want %dx%d", out, a.Rows, b.Cols))
	}
	out.Zero()
	overRows(matMulRange, out, a, b, a.Rows*a.Cols*b.Cols)
}

// MatMulT1Into computes out = aᵀ*b into caller-owned storage: a is KxM, b
// is KxN, out must be MxN and may hold stale data; it is zeroed first.
// Used for weight gradients (Xᵀ·dY).
func MatMulT1Into(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT1 outer dims %d vs %d", a.Rows, b.Rows))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT1Into out %v want %dx%d", out, a.Cols, b.Cols))
	}
	out.Zero()
	overRows(matMulT1Range, out, a, b, a.Rows*a.Cols*b.Cols)
}

// MatMulT2Into computes out = a*bᵀ into caller-owned storage: a is MxK, b
// is NxK, out must be MxN and may hold stale data; it is zeroed first.
// Used for input gradients (dY·Wᵀ).
func MatMulT2Into(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT2 inner dims %d vs %d", a.Cols, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT2Into out %v want %dx%d", out, a.Rows, b.Rows))
	}
	out.Zero()
	overRows(matMulT2Range, out, a, b, a.Rows*a.Cols*b.Rows)
}

// ---- the worker pool ----

// rangeKernel computes rows [lo,hi) of out from a and b.
type rangeKernel func(out, a, b *Matrix, lo, hi int)

// task is one share of one product, handed to a worker by value.
type task struct {
	kernel    rangeKernel
	out, a, b *Matrix
	lo, hi    int
	done      *sync.WaitGroup
}

// workers is the package's one pool: GOMAXPROCS goroutines that live as
// long as the process and only ever run a share and signal its WaitGroup.
// The queue holds one task per worker, so a worker still on its way back
// to the receive does not make the next call run serially.
//
// Progress: a worker never submits, waits or blocks on anything but this
// queue, so every queued share finishes; a caller never blocks on a full
// queue (it runs the share itself) and always computes the first share.
// Concurrent trainers — gnnserved tenants — therefore cannot deadlock
// each other, and at most GOMAXPROCS goroutines beyond the callers compute.
//
// The workers are deliberately never joined: they hold nothing but an idle
// stack, and no moment in a process's life is known to be after its last
// matmul. They start from init, not lazily, so the goroutine baselines of
// leak tests always include them.
var workers chan task

func init() {
	n := runtime.GOMAXPROCS(0)
	workers = make(chan task, n) // one queued share per worker, see above
	for i := 0; i < n; i++ {
		go func() {
			for t := range workers {
				t.kernel(t.out, t.a, t.b, t.lo, t.hi)
				t.done.Done()
			}
		}()
	}
}

// joins recycles the per-call WaitGroup, which tasks point to and so
// cannot live in the caller's frame.
var joins = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// overRows runs kernel over every row of out, split into GOMAXPROCS
// contiguous shares when the product is worth it. The split never changes
// a result (see the contract above).
func overRows(kernel rangeKernel, out, a, b *Matrix, flops int) {
	rows := out.Rows
	shares := 1
	if flops >= matmulParallelThreshold {
		shares = min(runtime.GOMAXPROCS(0), rows)
	}
	if shares <= 1 {
		kernel(out, a, b, 0, rows)
		return
	}
	chunk := (rows + shares - 1) / shares
	done := joins.Get().(*sync.WaitGroup)
	for lo := chunk; lo < rows; lo += chunk {
		t := task{kernel, out, a, b, lo, min(lo+chunk, rows), done}
		done.Add(1)
		select {
		case workers <- t:
		default:
			kernel(out, a, b, t.lo, t.hi)
			done.Done()
		}
	}
	kernel(out, a, b, 0, chunk)
	done.Wait()
	joins.Put(done)
}

// ---- the kernels ----
//
// Each form builds operand lists for rowKernel (rowkernel.go) and nothing
// else. The lists live on the kernel's stack, at most kBlock operands per
// call, so the hot path has no scratch to own and nothing a GC can take
// away. A row whose operands outnumber kBlock gets several calls in
// ascending k: between them its elements are stored and reloaded as
// float32, which rounds nothing.

// kBlock bounds one operand list: 64 (k, a) pairs are 512 B of stack.
const kBlock = 64

// ascending is the operand list 0, 1, …, kBlock-1, the k's of a·bᵀ, which
// skips nothing.
var ascending = func() (ks [kBlock]int32) {
	for i := range ks {
		ks[i] = int32(i)
	}
	return ks
}()

// nonZero is 1 for an a operand the skipping forms keep, 0 for ±0 (a NaN
// is kept). The forms write every operand into the next slot and advance
// by nonZero, without a branch: half of a post-ReLU input is zero, in no
// pattern a branch predictor learns.
func nonZero(av float32) int {
	if math.Float32bits(av)<<1 != 0 { // the sign shifted out: only ±0 leaves 0
		return 1
	}
	return 0
}

// matMulRange computes rows [lo,hi) of out = a*b (out zeroed by the
// caller). Row i of out is the sum over the non-zero a[i][k], ascending,
// of a[i][k]*b[k].
func matMulRange(out, a, b *Matrix, lo, hi int) {
	var ks [kBlock]int32
	var as [kBlock]float32
	for i := lo; i < hi; i++ {
		orow := out.Row(i)
		c := 0
		for k, av := range a.Row(i) {
			ks[c], as[c] = int32(k), av
			c += nonZero(av)
			if c == kBlock {
				rowKernel(orow, ks[:], as[:], b.Data, b.Cols)
				c = 0
			}
		}
		rowKernel(orow, ks[:c], as[:c], b.Data, b.Cols)
	}
}

// t1Tile is how many output rows matMulT1Range collects operands for at
// once: 16 consecutive float32 of an a row are one cache line.
const t1Tile = 16

// matMulT1Range computes rows [lo,hi) of out = aᵀ*b (out zeroed by the
// caller). Output row i is the sum over the non-zero a[k][i], ascending in
// k, of a[k][i]*b[k]. With k outermost every output row would be touched
// once per k and rows could not be shared out; instead a tile of output
// rows walks down all of a once, each row collecting its non-zero operands
// and handing them to the kernel whenever kBlock have gathered. Per output
// row the operands still arrive in ascending k.
func matMulT1Range(out, a, b *Matrix, lo, hi int) {
	m := a.Cols
	var ks [t1Tile][kBlock]int32
	var as [t1Tile][kBlock]float32
	var cnt [t1Tile]int
	for i0 := lo; i0 < hi; i0 += t1Tile {
		w := min(t1Tile, hi-i0)
		for k := 0; k < a.Rows; k++ {
			for t, av := range a.Data[k*m+i0 : k*m+i0+w] {
				c := cnt[t]
				ks[t][c], as[t][c] = int32(k), av
				c += nonZero(av)
				if c == kBlock {
					rowKernel(out.Row(i0+t), ks[t][:], as[t][:], b.Data, b.Cols)
					c = 0
				}
				cnt[t] = c
			}
		}
		for t := 0; t < w; t++ {
			rowKernel(out.Row(i0+t), ks[t][:cnt[t]], as[t][:cnt[t]], b.Data, b.Cols)
			cnt[t] = 0
		}
	}
}

// t2Cols is how many output columns — rows of b — one bᵀ tile of
// matMulT2Range covers: a 64 x 64 tile is 16 KiB of stack.
const t2Cols = 64

// matMulT2Range computes rows [lo,hi) of out = a*bᵀ (out zeroed by the
// caller): element (i,j) is the sum over every k, ascending, with no zero
// skip, of a[i][k]*b[j][k]. The kernel needs b's columns as rows, so each
// kBlock x t2Cols block of bᵀ is transposed once onto the stack and then
// serves every row of the share; a[i]'s k-block is the operand list as it
// stands.
func matMulT2Range(out, a, b *Matrix, lo, hi int) {
	kk, n := a.Cols, b.Rows
	var tile [kBlock * t2Cols]float32
	for j0 := 0; j0 < n; j0 += t2Cols {
		w := min(t2Cols, n-j0)
		for k0 := 0; k0 < kk; k0 += kBlock {
			d := min(kBlock, kk-k0)
			for j := 0; j < w; j++ {
				for k, v := range b.Data[(j0+j)*kk+k0:][:d] {
					tile[k*w+j] = v
				}
			}
			for i := lo; i < hi; i++ {
				rowKernel(out.Data[i*n+j0:][:w], ascending[:d], a.Data[i*kk+k0:][:d], tile[:d*w], w)
			}
		}
	}
}
