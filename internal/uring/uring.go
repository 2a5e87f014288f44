// Package uring provides an io_uring-like asynchronous read interface over
// a storage backend: a bounded submission side and a completion queue the
// caller drains by waiting, mirroring the SQ/CQ rings the paper uses
// (Appendix A). One goroutine can keep an arbitrary I/O depth in flight
// without per-request OS threads, which is exactly the property GNNDrive's
// extractors rely on.
package uring

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/storage"
)

// CQE is a completion-queue event.
type CQE struct {
	User    uint64
	Err     error
	Latency time.Duration
}

// Ring is an asynchronous I/O ring bound to one backend. Depth bounds the
// number of staged, in-flight or completed-but-uncollected requests;
// Queue* blocks when the ring is full (the common io_uring usage of
// waiting for completions to make room).
//
// A completion costs one lock hold and no channel operation: the
// backend's Done appends the CQE to a depth-sized circular CQ and never
// blocks (the CQ cannot overflow, because every entry in it still counts
// against depth), and the request goes back on a free list with its Done
// still bound.
type Ring struct {
	dev   storage.Backend
	depth int

	// mu guards held, the CQ and free. ready is signalled when a CQE
	// lands in the CQ, room when collecting one frees a unit of depth.
	mu    sync.Mutex
	ready sync.Cond
	room  sync.Cond
	// held counts requests staged, in flight, or completed but not yet
	// collected; Queue* waits while it is at depth.
	held int
	// cq[cqHead], … are the cqLen uncollected completions, oldest first.
	cq     []CQE
	cqHead int
	cqLen  int
	// free recycles completed Requests, each with Done bound once to
	// complete.
	free []*storage.Request

	// pending holds requests staged by the Queue* methods until Flush
	// hands them to the backend in one batch (one io_uring_enter on the
	// linuring backend). Like a real SQ, the staging side is owned by the
	// ring's one submitter goroutine — Queue*/Flush are not safe for
	// concurrent use, while WaitCQE/WaitCQEs remain so.
	pending []*storage.Request
	flushes atomic.Int64
}

// NewRing creates a ring with the given I/O depth on dev.
func NewRing(dev storage.Backend, depth int) *Ring {
	if depth <= 0 {
		depth = 1
	}
	r := &Ring{
		dev:     dev,
		depth:   depth,
		cq:      make([]CQE, depth),
		free:    make([]*storage.Request, 0, depth),
		pending: make([]*storage.Request, 0, depth),
	}
	r.ready.L = &r.mu
	r.room.L = &r.mu
	return r
}

// Depth returns the ring's I/O depth.
func (r *Ring) Depth() int { return r.depth }

// Inflight returns the number of submitted-but-uncollected requests.
func (r *Ring) Inflight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held
}

// QueueReadCtx stages an asynchronous direct read of p at off without
// submitting it; Flush hands every staged read to the backend in one
// batch, and user comes back in the CQE. off and len(p) must be
// sector-aligned: a misaligned read is refused here (storage.ErrUnaligned)
// before anything reaches the device. Blocks while depth requests are
// staged, in flight or uncollected.
//
// The request is bound to ctx: if ctx is cancelled while the device sleeps
// out the modeled service time (e.g. a fault-injected straggler delay),
// the completion arrives promptly with the context's error instead of
// after the full delay — the extractor's teardown path is never blocked
// behind a straggler.
func (r *Ring) QueueReadCtx(ctx context.Context, p []byte, off int64, user uint64) error {
	return r.queue(ctx, p, off, user, true)
}

// QueueBufferedReadCtx is QueueReadCtx without the alignment constraint,
// for configurations that fall back to buffered async I/O (§4.4).
func (r *Ring) QueueBufferedReadCtx(ctx context.Context, p []byte, off int64, user uint64) error {
	return r.queue(ctx, p, off, user, false)
}

func (r *Ring) queue(ctx context.Context, p []byte, off int64, user uint64, direct bool) error {
	if direct {
		if err := storage.CheckAlign(off, len(p), r.dev.SectorSize()); err != nil {
			return err
		}
	}
	r.mu.Lock()
	for r.held >= r.depth {
		r.room.Wait()
	}
	r.held++
	var req *storage.Request
	if n := len(r.free); n > 0 {
		req = r.free[n-1]
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	if req == nil {
		req = &storage.Request{Done: r.complete}
	} else {
		req.ResetForReuse()
	}
	req.Buf, req.Off, req.User, req.Direct, req.Ctx = p, off, user, direct, ctx
	r.pending = append(r.pending, req)
	return nil
}

// complete is every request's Done: it copies the CQE out, recycles the
// request and wakes one waiter. It never blocks beyond the lock — the CQ
// has room for every request the ring holds.
func (r *Ring) complete(req *storage.Request) {
	c := CQE{User: req.User, Err: req.Err, Latency: req.Latency}
	r.mu.Lock()
	r.cq[(r.cqHead+r.cqLen)%r.depth] = c
	r.cqLen++
	r.free = append(r.free, req)
	r.mu.Unlock()
	r.ready.Signal()
}

// Flush submits every staged read to the backend in one batch — a
// single SubmitBatch call, which the linuring backend turns into a
// single io_uring_enter — and returns how many were submitted. A flush
// with nothing staged is free.
func (r *Ring) Flush() int {
	n := len(r.pending)
	if n == 0 {
		return 0
	}
	r.flushes.Add(1)
	storage.SubmitAll(r.dev, r.pending)
	for i := range r.pending {
		r.pending[i] = nil
	}
	r.pending = r.pending[:0]
	return n
}

// Flushes returns how many non-empty Flush calls the ring has issued —
// the extractor's one-flush-per-wave contract is asserted against it.
func (r *Ring) Flushes() int64 { return r.flushes.Load() }

// WaitCQE blocks until a completion is available. A staged read only
// completes after Flush — callers interleaving Queue* with WaitCQE must
// flush before waiting or they wait on reads the device never saw.
func (r *Ring) WaitCQE() CQE {
	r.mu.Lock()
	for r.cqLen == 0 {
		r.ready.Wait()
	}
	c := r.popLocked()
	r.mu.Unlock()
	r.room.Signal()
	return c
}

// WaitCQEs is WaitCQE for a whole drain: it blocks for the first
// completion, then appends it and every other completion ready at that
// moment to cqes, oldest first, under one lock hold, and returns the
// extended slice.
func (r *Ring) WaitCQEs(cqes []CQE) []CQE {
	r.mu.Lock()
	for r.cqLen == 0 {
		r.ready.Wait()
	}
	for r.cqLen > 0 {
		cqes = append(cqes, r.popLocked())
	}
	r.mu.Unlock()
	r.room.Signal() // Queue* has one caller
	return cqes
}

// popLocked pops the oldest CQE and gives its unit of depth back to
// Queue*.
func (r *Ring) popLocked() CQE {
	c := r.cq[r.cqHead]
	r.cq[r.cqHead] = CQE{}
	r.cqHead = (r.cqHead + 1) % r.depth
	r.cqLen--
	r.held--
	return c
}
