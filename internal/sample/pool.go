package sample

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/graph"
	"gnndrive/internal/tensor"
)

// Pool is the sample stage every system shares: Workers goroutines pull
// batch indexes from one cursor and reseed to BatchSeed(Seed, epoch, i)
// before drawing batch i, so a batch's subgraph is a pure function of
// (Seed, epoch, i) — the same in every system and whichever goroutine
// draws it. Workers finish at different paces, so batches come out of
// order (the mini-batch reordering of §4.3).
type Pool struct {
	Workers int
	Fanouts []int
	Seed    uint64
	// Reader builds one worker's neighbor reader; workers never share one.
	// Its reads should carry ctx, which Run cancels when a worker fails,
	// so siblings stuck at the device stop too.
	Reader func(ctx context.Context) graph.NeighborReader
	// Get, when non-nil, supplies the batch each draw samples into (a
	// recycled one) and is called from every worker at once; nil
	// allocates a fresh batch per draw.
	Get func() *Batch
}

// Cost is what sampling one batch took: its start, its duration, and the
// part of that blocked on topology I/O.
type Cost struct {
	Start  time.Time
	Took   time.Duration
	IOWait time.Duration
}

// Run samples batches[i] as batch i of epoch for every i in
// [from, len(batches)) and hands each batch and its cost to emit, on the
// worker that drew it, so emit must be safe for concurrent use. Workers
// stop drawing at the first sampling or emit error or once ctx is
// cancelled. Run returns when every worker has stopped, with that first
// error (ctx's, if it was cancelled with batches left undrawn) or nil.
func (p Pool) Run(ctx context.Context, epoch int, batches [][]int64, from int, emit func(*Batch, Cost) error) error {
	return p.run(ctx, epoch, batches, from, false, emit)
}

// RunInOrder is Run with emit called in batch order, one batch at a time,
// as PyTorch's DataLoader yields batches: a worker that has drawn batch i
// waits until batch i-1 has been emitted, so at most Workers batches are
// sampled ahead of the hand-off.
func (p Pool) RunInOrder(ctx context.Context, epoch int, batches [][]int64, from int, emit func(*Batch, Cost) error) error {
	return p.run(ctx, epoch, batches, from, true, emit)
}

func (p Pool) run(ctx context.Context, epoch int, batches [][]int64, from int, ordered bool, emit func(*Batch, Cost) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// turn[i] closes when batch i may be emitted.
	var turn []chan struct{}
	if ordered {
		turn = make([]chan struct{}, max(len(batches), from)+1)
		for i := range turn {
			turn[i] = make(chan struct{})
		}
		close(turn[from])
	}
	var next atomic.Int64
	next.Store(int64(from))
	var first errutil.FirstError
	fail := func(err error) {
		first.Set(err)
		cancel()
	}
	var wg sync.WaitGroup
	for w := 0; w < max(p.Workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The initial stream is never drawn from: every batch reseeds.
			smp := New(p.Reader(ctx), p.Fanouts, tensor.NewRNG(p.Seed))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				t0 := time.Now()
				b := p.batch()
				smp.Reseed(BatchSeed(p.Seed, epoch, i))
				ioWait, err := smp.SampleBatchInto(b, i, batches[i])
				cost := Cost{Start: t0, Took: time.Since(t0), IOWait: ioWait}
				if err == nil && ordered {
					select {
					case <-turn[i]:
					case <-ctx.Done():
						err = ctx.Err()
					}
				}
				if err == nil {
					err = emit(b, cost)
				}
				if err == nil && ordered {
					close(turn[i+1])
				}
				if err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first.Get()
}

// SampleOnly runs the pool over batches with nothing downstream (the
// paper's "-only" measurements, Fig. 2), hands each batch's topology I/O
// wait to ioWait, and returns the summed sampling time.
func (p Pool) SampleOnly(ctx context.Context, epoch int, batches [][]int64, ioWait func(time.Duration)) (time.Duration, error) {
	var total atomic.Int64
	err := p.Run(ctx, epoch, batches, 0, func(_ *Batch, c Cost) error {
		total.Add(int64(c.Took))
		ioWait(c.IOWait)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return time.Duration(total.Load()), nil
}

func (p Pool) batch() *Batch {
	if p.Get != nil {
		return p.Get()
	}
	return &Batch{}
}
