package integrity

import (
	"context"
	"sync"
	"time"

	"gnndrive/internal/storage"
)

// submitHedged runs one read as a hedged pair: the primary leg is
// submitted immediately; if it is still in flight after HedgeAfter a
// hedge leg is issued for the same range on the buffered path. The first
// *successful* leg wins — its bytes are copied to the caller, verified,
// and completed; the loser is cancelled through a context derived from
// the caller's (cancellation is best-effort when the caller supplied no
// context: the loser then just completes and is discarded). A failed leg
// does not complete the caller while the other leg is still in flight,
// so a transient primary error can be absorbed by a clean hedge and vice
// versa.
//
// Both legs stage into private pooled buffers: two backend workers
// writing the same caller buffer concurrently would be a data race, and
// under fault injection the two legs can genuinely return different
// bytes. The winner's copy-out is the price of tail tolerance and only
// applies while hedging is armed.
func (b *Backend) submitHedged(req *storage.Request, direct, probe bool) {
	h := &hedged{b: b, caller: req, probe: probe, primBuf: b.getBuf(len(req.Buf))}
	prim := &storage.Request{Buf: *h.primBuf, Off: req.Off, User: req.User,
		Direct: direct, Ctx: req.Ctx, Done: h.primaryDone}
	// Arm the timer before submitting: an inline completion (bounds error,
	// closed backend) stops it through the usual path. The assignment
	// happens under the mutex because with a short threshold the callback
	// can fire — and the hedge leg complete — concurrently with it; both
	// the callback and every completion lock h.mu first, ordering their
	// h.timer reads after this write.
	h.mu.Lock()
	h.timer = time.AfterFunc(b.opts.HedgeAfter, h.launchHedge)
	h.mu.Unlock()
	b.inner.Submit(prim)
}

// hedged tracks one hedged read. The mutex serializes the three rare
// events (timer fire, primary completion, hedge completion); the hot
// path takes it twice per read.
type hedged struct {
	b      *Backend
	caller *storage.Request
	probe  bool
	// primBuf and hedgeBuf are the legs' pooled staging buffers, each
	// recycled by its own leg's completion.
	primBuf, hedgeBuf *[]byte

	mu        sync.Mutex
	finished  bool
	launched  bool
	primDone  bool
	hedgeDone bool
	primErr   error // primary's error while deferring to the hedge leg
	cancel    context.CancelFunc
	timer     *time.Timer
}

// launchHedge fires when the primary outlives the latency threshold.
func (h *hedged) launchHedge() {
	h.mu.Lock()
	if h.finished || h.primDone {
		h.mu.Unlock()
		return
	}
	h.launched = true
	var hctx context.Context
	if pctx := h.caller.Ctx; pctx != nil {
		hctx, h.cancel = context.WithCancel(pctx)
	}
	h.hedgeBuf = h.b.getBuf(len(h.caller.Buf))
	req := &storage.Request{Buf: *h.hedgeBuf, Off: h.caller.Off, User: h.caller.User,
		Direct: false, Ctx: hctx, Done: h.hedgeDoneCB}
	h.mu.Unlock()
	h.b.hedgesIssued.Add(1)
	h.b.inner.Submit(req)
}

func (h *hedged) primaryDone(r *storage.Request) { h.legDone(r, false) }
func (h *hedged) hedgeDoneCB(r *storage.Request) { h.legDone(r, true) }

// legDone arbitrates a leg completion. Success wins immediately; an
// error defers to the other leg when one is still in flight.
func (h *hedged) legDone(r *storage.Request, isHedge bool) {
	// Breaker health rides each raw completion; probe accounting rides
	// the primary leg (the one that may have gone direct).
	h.b.observe(r.Err, r.Latency, !isHedge && h.probe)

	h.mu.Lock()
	buf := h.primBuf
	if isHedge {
		buf = h.hedgeBuf
	}
	if h.finished {
		h.mu.Unlock()
		h.b.putBuf(buf) // loser: recycle, the caller is long gone
		return
	}
	if isHedge {
		h.hedgeDone = true
	} else {
		h.primDone = true
	}
	if r.Err != nil {
		otherInFlight := !h.primDone
		if !isHedge {
			otherInFlight = h.launched && !h.hedgeDone
		}
		if otherInFlight {
			// Remember the primary's failure, recycle this leg's buffer,
			// and let the surviving leg decide the outcome.
			if !isHedge {
				h.primErr = r.Err
			}
			h.b.putBuf(buf)
			h.mu.Unlock()
			return
		}
	}
	h.finished = true
	h.timer.Stop()
	cancel, primErr := h.cancel, h.primErr
	hedgeInFlight := h.launched && !h.hedgeDone
	h.mu.Unlock()

	if isHedge && r.Err == nil {
		h.b.hedgesWon.Add(1)
	}
	if hedgeInFlight {
		// Primary settled the read while the hedge leg was in flight.
		h.b.hedgesCancelled.Add(1)
	}
	if cancel != nil {
		// Cancel the loser / release the derived context.
		cancel()
	}

	c := h.caller
	c.Submitted, c.Latency = r.Submitted, r.Latency
	c.Err = r.Err
	switch {
	case c.Err == nil:
		copy(c.Buf, r.Buf)
		c.Err = h.b.verify(c.Ctx, c.Buf, c.Off)
		if c.Err != nil {
			// The raw completion was healthy and already recorded; a
			// checksum failure is a second, unhealthy signal.
			h.b.observe(c.Err, 0, false)
		}
	case isHedge && primErr != nil:
		// Both legs failed: surface the primary's error (the hedge often
		// just repeats it or reports its own cancellation).
		c.Err = primErr
	}
	h.b.putBuf(buf)
	if c.Done != nil {
		c.Done(c)
	}
}
