package storage

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/faults"
)

// This file is the part of a backend that is not its read mechanism. The
// three backends differ only in how bytes reach req.Buf — sim's modeled
// channels, file's pread pool, linuring's SQ/CQ ring — and share the rest:
// Injection decides faults, Fence admits requests and orders them before
// Close, Counters applies a decision's fault semantics, completes the
// request and keeps the seven Stats counters, and SyncReads turns Submit
// into the four synchronous reads.

// Fence orders a backend's submissions before its Close. Submitters hand
// admitted requests to the read mechanism under the read side; Shut takes
// the write side once, so no request can race onto a torn-down queue or
// ring, and a late submit completes with ErrClosed instead of panicking.
type Fence struct {
	mu     sync.RWMutex
	closed bool
}

// Admit hands every request of reqs that lies inside capacity to admit,
// under the fence's read side and with Submitted stamped. A request out of
// bounds, or arriving after Shut, completes with that error instead. It
// completes with the fence released, so a Done that submits again or
// closes the backend cannot deadlock against a waiting Shut. A run of
// admitted requests shares one lock acquisition and one clock reading.
func (f *Fence) Admit(reqs []*Request, capacity int64, admit func(*Request)) {
	var now time.Time
	held := false
	for _, req := range reqs {
		err := CheckBounds(req.Off, int64(len(req.Buf)), capacity)
		if err == nil {
			if !held {
				f.mu.RLock()
				held, now = true, time.Now()
			}
			if !f.closed {
				req.Submitted = now
				admit(req)
				continue
			}
			err = ErrClosed
		}
		if held {
			f.mu.RUnlock()
			held = false
		}
		req.Err = err
		if req.Done != nil {
			req.Done(req)
		}
	}
	if held {
		f.mu.RUnlock()
	}
}

// Shut closes the fence once admissions in progress have returned, and
// reports whether this call closed it: a backend's Close tears down only
// on true, which makes Close idempotent.
func (f *Fence) Shut() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false
	}
	f.closed = true
	return true
}

// Counters are a backend's cumulative read counters (Stats) and the
// bookkeeping that feeds them: Fault and Complete apply the fault
// semantics every backend shares, Abandon completes a cancelled request.
type Counters struct {
	reads, bytesRead, faults            atomic.Int64
	busyNanos, queueNanos, latencyNanos atomic.Int64
	directDegraded                      atomic.Int64
}

// Stats returns a snapshot of the counters.
func (c *Counters) Stats() Stats {
	return Stats{
		Reads:          c.reads.Load(),
		BytesRead:      c.bytesRead.Load(),
		Faults:         c.faults.Load(),
		BusyTime:       time.Duration(c.busyNanos.Load()),
		QueueTime:      time.Duration(c.queueNanos.Load()),
		TotalLatency:   time.Duration(c.latencyNanos.Load()),
		DirectDegraded: c.directDegraded.Load(),
	}
}

// AddBusy charges d of device time spent outside a read (WriteSync).
func (c *Counters) AddBusy(d time.Duration) { c.busyNanos.Add(int64(d)) }

// CountDegraded records that req, a direct ask, was served through a
// buffered path. A request counts once however often it re-enters that
// path: file's retry after a runtime O_DIRECT rejection and linuring's
// buffered re-submit after an EINVAL completion serve it twice.
func (c *Counters) CountDegraded(req *Request) {
	if req.degraded.CompareAndSwap(false, true) {
		c.directDegraded.Add(1)
	}
}

// Fault applies dec's error before the read and returns how many bytes
// the device still delivers: all of req.Buf for a clean decision, a short
// read's prefix, nothing for any other error. An injected error is
// stamped on req and counted as a fault.
func (c *Counters) Fault(req *Request, dec faults.Decision) int {
	if dec.Err == nil {
		return len(req.Buf)
	}
	req.Err = dec.Err
	c.faults.Add(1)
	return dec.Bytes
}

// Complete finishes req once filled bytes are in req.Buf. A clean read
// first gets dec's silent corruption — one flipped bit of the returned
// bytes, not of the medium, counted as a fault although the read
// succeeds. Then Latency is stamped, svc is charged as busy time and the
// rest of the latency as queueing, and Done fires. sim passes its modeled
// service time, file and linuring the wall time since service began.
func (c *Counters) Complete(req *Request, dec faults.Decision, svc time.Duration, filled int) {
	if req.Err == nil && dec.Corrupt {
		c.faults.Add(1)
		faults.ApplyCorruption(dec, req.Buf[:filled])
	}
	req.Latency = time.Since(req.Submitted)
	c.reads.Add(1)
	c.bytesRead.Add(int64(filled))
	c.busyNanos.Add(int64(svc))
	if q := req.Latency - svc; q > 0 {
		c.queueNanos.Add(int64(q))
	}
	c.latencyNanos.Add(int64(req.Latency))
	if req.Done != nil {
		req.Done(req)
	}
}

// Abandon completes req, whose context was cancelled before the device
// delivered it, with the context's error: a read, no bytes, no fault.
func (c *Counters) Abandon(req *Request, svc time.Duration) {
	req.Err = fmt.Errorf("storage: read [%d,%d) abandoned: %w",
		req.Off, req.Off+int64(len(req.Buf)), req.Ctx.Err())
	c.Complete(req, faults.Decision{}, svc, 0)
}

// SyncReads is the synchronous half of a Backend: ReadAt, ReadAtCtx,
// ReadDirect and ReadDirectCtx, each one read through the Submit it is
// bound to, with the caller blocked until Done. A backend embeds it, so
// whatever its Submit does — channel model, worker pool, ring,
// verification — applies to its synchronous reads as well. The waiters
// are pooled per SyncReads, never shared between backends.
type SyncReads struct {
	submit  func(*Request)
	sector  int
	waiters sync.Pool
}

// syncWaiter is one pooled synchronous read: a Request whose Done is
// bound once to a send on its 1-buffered channel. A read always receives
// that send before it returns the waiter, so a recycled waiter never has
// a completion outstanding.
type syncWaiter struct {
	req  Request
	done chan struct{}
}

func (w *syncWaiter) signal(*Request) { w.done <- struct{}{} }

// NewSyncReads binds the synchronous reads to submit, a backend's Submit,
// and holds direct reads to that backend's sector size.
func NewSyncReads(submit func(*Request), sector int) *SyncReads {
	s := &SyncReads{submit: submit, sector: sector}
	s.waiters.New = func() any {
		w := &syncWaiter{done: make(chan struct{}, 1)}
		w.req.Done = w.signal
		return w
	}
	return s
}

// ReadAt is Backend.ReadAt: a synchronous buffered read.
func (s *SyncReads) ReadAt(p []byte, off int64) (time.Duration, error) {
	return s.read(nil, p, off, false)
}

// ReadAtCtx is Backend.ReadAtCtx: ReadAt bounded by ctx.
func (s *SyncReads) ReadAtCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	return s.read(ctx, p, off, false)
}

// ReadDirect is Backend.ReadDirect: ReadAt held to the sector alignment.
func (s *SyncReads) ReadDirect(p []byte, off int64) (time.Duration, error) {
	return s.ReadDirectCtx(nil, p, off)
}

// ReadDirectCtx is Backend.ReadDirectCtx: ReadDirect bounded by ctx. The
// request is submitted Direct.
func (s *SyncReads) ReadDirectCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	if err := CheckAlign(off, len(p), s.sector); err != nil {
		return 0, err
	}
	return s.read(ctx, p, off, true)
}

// read submits one read of p at off (ctx, nil permitted, rides the
// request) and returns how long the caller waited.
func (s *SyncReads) read(ctx context.Context, p []byte, off int64, direct bool) (time.Duration, error) {
	w := s.waiters.Get().(*syncWaiter)
	req := &w.req
	req.ResetForReuse()
	req.Buf, req.Off, req.Direct, req.Ctx = p, off, direct, ctx
	start := time.Now()
	s.submit(req)
	<-w.done
	waited, err := time.Since(start), req.Err
	req.Buf, req.Ctx = nil, nil
	s.waiters.Put(w)
	return waited, err
}
