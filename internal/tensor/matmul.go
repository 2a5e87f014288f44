package tensor

import (
	"fmt"
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
// is NxK, out must be MxN. Every element of out is overwritten, so stale
// contents are fine and no zeroing pass is needed. Used for input
// gradients (dY·Wᵀ).
func MatMulT2Into(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT2 inner dims %d vs %d", a.Cols, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT2Into out %v want %dx%d", out, a.Rows, b.Rows))
	}
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

// axpy is the single multiply-add pass o[j] += av*b[j].
func axpy(o []float32, av float32, b []float32) {
	b = b[:len(o)]
	for j := range o {
		o[j] += av * b[j]
	}
}

// axpy4 applies four multiply-add passes to o in one: each element is
// loaded once, receives a0*b0[j], a1*b1[j], a2*b2[j], a3*b3[j] in that
// order, and is stored once — the same four roundings as four axpy calls.
func axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		s := o[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		o[j] = s
	}
}

// matMulRange computes rows [lo,hi) of out = a*b (out zeroed by the
// caller). Row i of out is the sum over the non-zero a[i][k], ascending,
// of a[i][k]*b[k]; four of them at a time go through axpy4, the last
// fewer than four through axpy.
func matMulRange(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		var ks [4]int
		c := 0
		for k, av := range arow {
			if av == 0 {
				continue
			}
			ks[c] = k
			c++
			if c == 4 {
				k0, k1, k2 := ks[0], ks[1], ks[2]
				axpy4(orow, arow[k0], arow[k1], arow[k2], av, b.Row(k0), b.Row(k1), b.Row(k2), b.Row(k))
				c = 0
			}
		}
		for _, k := range ks[:c] {
			axpy(orow, arow[k], b.Row(k))
		}
	}
}

// t1Tile is how many output rows matMulT1Range carries pending operands
// for at once: 16 rows of four (k, a) pairs are 512 B of stack, and 16
// consecutive float32 of an a row are one cache line.
const t1Tile = 16

// matMulT1Range computes rows [lo,hi) of out = aᵀ*b (out zeroed by the
// caller). Output row i is the sum over the non-zero a[k][i], ascending in
// k, of a[k][i]*b[k]. With k outermost every output row would be touched
// once per k and rows could not be shared out; instead a tile of output
// rows walks down all of a, each row parks its non-zero operands until it
// has four and applies them through axpy4. Per output row the operands
// still arrive in ascending k.
func matMulT1Range(out, a, b *Matrix, lo, hi int) {
	m := a.Cols
	for i0 := lo; i0 < hi; i0 += t1Tile {
		w := min(t1Tile, hi-i0)
		var pk [t1Tile][4]int
		var pa [t1Tile][4]float32
		var cnt [t1Tile]int
		for k := 0; k < a.Rows; k++ {
			for t, av := range a.Data[k*m+i0 : k*m+i0+w] {
				if av == 0 {
					continue
				}
				c := cnt[t]
				if c < 3 {
					pk[t][c], pa[t][c] = k, av
					cnt[t] = c + 1
					continue
				}
				k0, k1, k2 := pk[t][0], pk[t][1], pk[t][2]
				axpy4(out.Row(i0+t), pa[t][0], pa[t][1], pa[t][2], av, b.Row(k0), b.Row(k1), b.Row(k2), b.Row(k))
				cnt[t] = 0
			}
		}
		for t := 0; t < w; t++ {
			for c := 0; c < cnt[t]; c++ {
				axpy(out.Row(i0+t), pa[t][c], b.Row(pk[t][c]))
			}
		}
	}
}

// matMulT2Range computes rows [lo,hi) of out = a*bᵀ: element (i,j) is the
// dot product of a's row i and b's row j, summed in ascending k with no
// zero skip. Four dot products of one a row run at once, each in its own
// accumulator, so four add chains overlap instead of one being waited on.
func matMulT2Range(out, a, b *Matrix, lo, hi int) {
	kk, n := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*kk : j*kk+kk][:len(arow)]
			b1 := b.Data[(j+1)*kk : (j+1)*kk+kk][:len(arow)]
			b2 := b.Data[(j+2)*kk : (j+2)*kk+kk][:len(arow)]
			b3 := b.Data[(j+3)*kk : (j+3)*kk+kk][:len(arow)]
			var s0, s1, s2, s3 float32
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*kk : j*kk+kk][:len(arow)]
			var s float32
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}
