// Package uring provides an io_uring-like asynchronous read interface over
// a storage backend: a bounded submission side and a completion queue the
// caller drains with peek/wait, mirroring the SQ/CQ rings the paper uses
// (Appendix A). One goroutine can keep an arbitrary I/O depth in flight
// without per-request OS threads, which is exactly the property GNNDrive's
// extractors rely on.
package uring

import (
	"context"
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
// number of staged or in-flight requests; Queue* blocks when the ring is
// full (the common io_uring usage of waiting for completions to make room).
type Ring struct {
	dev      storage.Backend
	depth    int
	slots    chan struct{}
	cq       chan CQE
	inflight atomic.Int64

	// pending holds requests staged by the Queue* methods until Flush
	// hands them to the backend in one batch (one io_uring_enter on the
	// linuring backend). Like a real SQ, the staging side is owned by the
	// ring's one submitter goroutine — Queue*/Flush are not safe for
	// concurrent use, while WaitCQE/PeekCQE remain so.
	pending []*storage.Request
	// reqFree recycles completed Requests: each carries a Done closure
	// bound once, and the CQE channel's depth-sized buffer means the
	// completion is parked before the request is reused.
	reqFree chan *storage.Request
	flushes atomic.Int64
}

// NewRing creates a ring with the given I/O depth on dev.
func NewRing(dev storage.Backend, depth int) *Ring {
	if depth <= 0 {
		depth = 1
	}
	return &Ring{
		dev:     dev,
		depth:   depth,
		slots:   make(chan struct{}, depth),
		cq:      make(chan CQE, depth),
		reqFree: make(chan *storage.Request, depth),
	}
}

// Depth returns the ring's I/O depth.
func (r *Ring) Depth() int { return r.depth }

// Inflight returns the number of submitted-but-uncollected requests.
func (r *Ring) Inflight() int { return int(r.inflight.Load()) }

// QueueReadCtx stages an asynchronous direct read of p at off without
// submitting it; Flush hands every staged read to the backend in one
// batch, and user comes back in the CQE. off and len(p) must be
// sector-aligned: alignment is validated here (storage.ErrUnaligned), so
// a caller can still degrade the op to a buffered queue entry before
// anything reaches the device (§4.4's fallback ladder). Blocks when depth
// requests are staged or in flight.
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
	r.slots <- struct{}{}
	r.inflight.Add(1)
	req := r.getReq()
	req.Buf, req.Off, req.User, req.Direct, req.Ctx = p, off, user, direct, ctx
	r.pending = append(r.pending, req)
	return nil
}

// getReq returns a recycled Request (its Done closure already bound to
// this ring's CQ) or builds a fresh one.
func (r *Ring) getReq() *storage.Request {
	select {
	case req := <-r.reqFree:
		req.ResetForReuse()
		return req
	default:
	}
	req := &storage.Request{}
	req.Done = func(rq *storage.Request) {
		// The CQE is copied out before the request is recycled; the CQ
		// buffer holds depth entries, so neither send can block.
		r.cq <- CQE{User: rq.User, Err: rq.Err, Latency: rq.Latency}
		select {
		case r.reqFree <- rq:
		default:
		}
	}
	return req
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
	c := <-r.cq
	r.inflight.Add(-1)
	<-r.slots
	return c
}

// PeekCQE returns a completion if one is ready.
func (r *Ring) PeekCQE() (CQE, bool) {
	select {
	case c := <-r.cq:
		r.inflight.Add(-1)
		<-r.slots
		return c, true
	default:
		return CQE{}, false
	}
}
