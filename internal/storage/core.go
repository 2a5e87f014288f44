package storage

import (
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
// Close, and Counters applies a decision's fault semantics, completes the
// request and keeps the seven Stats counters.

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
