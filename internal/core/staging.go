package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/storage"
)

// Staging is the bounded host-memory buffer through which feature bytes
// travel from SSD to the device feature buffer (§4.2). It is a run of
// fixed-size units (slots): a read acquires an extent of contiguous
// units large enough for its bytes and releases it once the host-to-
// device transfer completes, so the host footprint is bounded by
// units x unitBytes no matter how large the mini-batches are. The whole
// pool is pinned in the host budget.
//
// Blocked acquires queue FIFO. Later acquires may overtake the first in
// line while it waits for a free run, but only maxOvertakes times: then
// it reserves the window of units nearest to free, no other acquire
// takes units there, and the window only drains. So a large extent is
// never starved by a stream of small ones, and a short wait does not
// stall the pool.
//
// A Staging is either a root pool (owns the memory and the budget pin)
// or a quota view carved from a root with Carve: views share the root's
// units, backing region, and wait queue, but each is capped at its own
// unit limit so one tenant of a shared pool cannot starve the others.
type Staging struct {
	unitBytes int
	units     int
	data      []byte
	budget    *hostmem.Budget

	// Quota-view state: parent is nil on a root pool. A view's used
	// counter is guarded by the root's mu (views have no lock of their
	// own), and limit is immutable after Carve.
	parent *Staging
	limit  int
	used   int

	// The root's allocator state, guarded by mu. Bit u of held is set
	// while unit u belongs to an extent (and always beyond the last unit,
	// so no run reaches past it); free counts the clear bits.
	mu     sync.Mutex
	cond   *sync.Cond
	held   []uint64
	free   int
	queue  []stagingWaiter // blocked acquires, oldest first
	ticket uint64          // last ticket handed to a waiter
	resv   reservation     // the first waiter's overtakes and window
	closed bool
}

// maxOvertakes is how many acquires may take units ahead of the first
// waiter before it reserves a window.
const maxOvertakes = 64

// reservation is the first waiter's claim: id is its ticket (0 when no
// one waits), overtakes counts the acquires served ahead of it, and once
// those reach maxOvertakes, [start, start+n) is the window it waits to
// drain (n 0 before).
type reservation struct {
	id        uint64
	overtakes int
	start, n  int
}

// Extent is a run of N contiguous staging units starting at unit Start.
type Extent struct{ Start, N int32 }

// stagingWaiter is one blocked AcquireExtentCtx: the view (or root) it
// acquires through and the units it needs.
type stagingWaiter struct {
	id uint64
	s  *Staging
	n  int
}

// NewStaging pins a pool of units x unitBytes host bytes. Fails with the
// budget's OOM error when the pin does not fit.
func NewStaging(budget *hostmem.Budget, units, unitBytes int) (*Staging, error) {
	if units < 1 || unitBytes < 1 {
		return nil, fmt.Errorf("core: staging %d x %d", units, unitBytes)
	}
	total := int64(units) * int64(unitBytes)
	if budget != nil {
		if err := budget.Pin("staging buffer", total); err != nil {
			return nil, err
		}
	}
	s := &Staging{
		unitBytes: unitBytes,
		units:     units,
		// Sector-aligned backing memory: unit sizes are 512-byte
		// multiples, so an aligned base keeps every extent's address
		// aligned and the file backend's O_DIRECT path reachable.
		data:   storage.AlignedBuf(int(total), 512),
		budget: budget,
		held:   make([]uint64, (units+63)/64),
		free:   units,
	}
	if tail := units % 64; tail != 0 {
		s.held[len(s.held)-1] = ^uint64(0) << tail
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Carve returns a quota view of the root pool: the view hands out the
// root's units but never holds more than limit at once, so concurrent
// tenants sharing one pinned pool get max-min isolation instead of
// best-effort racing. Views cannot be re-carved. Closing a view only
// retires the view (waking its waiters); extents it still holds return
// to the root as their transfers complete, and the root's budget pin is
// untouched.
func (s *Staging) Carve(limit int) (*Staging, error) {
	if s.parent != nil {
		return nil, fmt.Errorf("core: carve of a carved staging view")
	}
	if limit < 1 || limit > s.units {
		return nil, fmt.Errorf("core: carve limit %d of %d-unit pool", limit, s.units)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: carve of closed staging pool")
	}
	return &Staging{
		unitBytes: s.unitBytes,
		units:     s.units,
		data:      s.data,
		parent:    s,
		limit:     limit,
	}, nil
}

// root returns the Staging owning the lock, cond, and allocator.
func (s *Staging) root() *Staging {
	if s.parent != nil {
		return s.parent
	}
	return s
}

// Close unpins the pool from the host budget. Closing a view retires
// only the view: its waiters wake with an error, the root pool stays
// open, and the pin stays accounted to the root.
func (s *Staging) Close() {
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.parent == nil && s.budget != nil {
		s.budget.Unpin(int64(s.units) * int64(s.unitBytes))
	}
	r.cond.Broadcast()
}

// Bytes returns the pinned pool size (for a view: the quota's worth).
func (s *Staging) Bytes() int64 { return int64(s.Slots()) * int64(s.unitBytes) }

// Slots returns the pool capacity in units; for a view, its quota limit.
func (s *Staging) Slots() int {
	if s.parent != nil {
		return s.limit
	}
	return s.units
}

// UnitsFor returns how many units a read of n bytes acquires.
func (s *Staging) UnitsFor(n int) int { return max(1, (n+s.unitBytes-1)/s.unitBytes) }

// AcquireExtentCtx blocks until n contiguous units are free (and, on a
// view, quota headroom exists) outside the window an earlier blocked
// acquire reserved, ctx is cancelled, or the pool is closed. A cancelled ctx must
// be paired with an Interrupt (the epoch teardown does this) to
// guarantee prompt wake-up. An extent larger than the pool or the view's
// quota is an error: waiting could never satisfy it.
func (s *Staging) AcquireExtentCtx(ctx context.Context, n int) (Extent, error) {
	if n < 1 || n > s.Slots() {
		return Extent{}, fmt.Errorf("core: staging extent of %d units in a %d-unit pool", n, s.Slots())
	}
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := s.takeLocked(n, 0); ok {
		return e, nil
	}
	r.ticket++
	id := r.ticket
	r.queue = append(r.queue, stagingWaiter{id: id, s: s, n: n})
	defer r.dequeueLocked(id)
	for {
		if r.closed || s.closed {
			return Extent{}, fmt.Errorf("core: staging buffer closed")
		}
		if err := ctx.Err(); err != nil {
			return Extent{}, err
		}
		if e, ok := s.takeLocked(n, id); ok {
			return e, nil
		}
		r.cond.Wait()
	}
}

// TryAcquireExtent returns n contiguous units if they are free now
// (within quota, on a view) outside any reserved window.
func (s *Staging) TryAcquireExtent(n int) (Extent, bool) {
	if n < 1 {
		return Extent{}, false
	}
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.takeLocked(n, 0)
}

// ReleaseExtent returns an extent to the pool. Releasing units that are
// not held is a bug and panics.
func (s *Staging) ReleaseExtent(e Extent) {
	r := s.root()
	start, n := int(e.Start), int(e.N)
	r.mu.Lock()
	if n < 1 || start < 0 || start+n > r.units || !r.heldLocked(start, n) {
		r.mu.Unlock()
		panic(fmt.Sprintf("core: release of staging extent [%d,+%d) not held", start, n))
	}
	r.markLocked(start, n, false)
	s.used = max(0, s.used-n)
	wake := len(r.queue) > 0
	r.mu.Unlock()
	if wake {
		// Waiters need different extents and sit behind one FIFO head,
		// which a single Signal might miss.
		r.cond.Broadcast()
	}
}

// ExtentBuf returns the byte region of an extent.
func (s *Staging) ExtentBuf(e Extent) []byte {
	return s.data[int(e.Start)*s.unitBytes : int(e.Start+e.N)*s.unitBytes]
}

// AcquireCtx, TryAcquire, Release and Buf are the one-unit forms of the
// extent calls, for callers whose reads never exceed one unit.

// AcquireCtx blocks for one unit; see AcquireExtentCtx.
func (s *Staging) AcquireCtx(ctx context.Context) (int32, error) {
	e, err := s.AcquireExtentCtx(ctx, 1)
	if err != nil {
		return -1, err
	}
	return e.Start, nil
}

// TryAcquire returns one unit if one can be taken now.
func (s *Staging) TryAcquire() (int32, bool) {
	e, ok := s.TryAcquireExtent(1)
	if !ok {
		return -1, false
	}
	return e.Start, true
}

// Release returns one unit to the pool.
func (s *Staging) Release(slot int32) { s.ReleaseExtent(Extent{Start: slot, N: 1}) }

// Buf returns the byte region of one unit.
func (s *Staging) Buf(slot int32) []byte { return s.ExtentBuf(Extent{Start: slot, N: 1}) }

// takeLocked takes n units for s if its quota allows and a run is free.
// The acquire with ticket self (0 for one that never queued) may take
// any free run when it is first in line, and reserves a window when it
// finds none and has been overtaken enough; every other acquire skips
// the reserved window. Callers hold the root mu.
func (s *Staging) takeLocked(n int, self uint64) (Extent, bool) {
	r := s.root()
	if r.closed || s.closed || (s.parent != nil && s.used+n > s.limit) {
		return Extent{}, false
	}
	head := r.headLocked()
	if r.resv.id != head {
		r.resv = reservation{id: head} // a new first in line
	}
	var start int
	if head != 0 && head == self {
		if start = r.findLocked(n, reservation{}); start < 0 {
			if r.resv.n == 0 && r.resv.overtakes >= maxOvertakes {
				r.resv.start, r.resv.n = r.windowLocked(n), n
			}
			return Extent{}, false
		}
		r.resv = reservation{}
	} else {
		if start = r.findLocked(n, r.resv); start < 0 {
			return Extent{}, false
		}
		if head != 0 {
			r.resv.overtakes++
		}
	}
	r.markLocked(start, n, true)
	s.used += n
	return Extent{Start: int32(start), N: int32(n)}, true
}

// headLocked returns the ticket of the oldest waiter that only lacks
// free units, or 0 when none waits. A waiter held back by its own view's
// quota, or on a closed view, is not in line: it waits on its own
// tenant's releases, and must not block the pool for the others.
func (r *Staging) headLocked() uint64 {
	for _, w := range r.queue {
		if !w.s.closed && (w.s.parent == nil || w.s.used+w.n <= w.s.limit) {
			return w.id
		}
	}
	return 0
}

// dequeueLocked drops ticket id from the wait queue, with its
// reservation, and lets the waiters behind it re-check whether they are
// now first in line.
func (r *Staging) dequeueLocked(id uint64) {
	for i, w := range r.queue {
		if w.id == id {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			break
		}
	}
	if r.resv.id == id {
		r.resv = reservation{}
	}
	if len(r.queue) > 0 {
		r.cond.Broadcast()
	}
}

// findLocked returns the first unit of the lowest run of n free units
// outside skip's window, or -1. Callers hold the root mu.
func (r *Staging) findLocked(n int, skip reservation) int {
	if n > r.free {
		return -1
	}
	run, start := 0, 0
	for w, word := range r.held {
		if skip.n > 0 {
			word |= rangeMask(w, skip.start, skip.start+skip.n)
		}
		for b := 0; b < 64; {
			rest := word >> b
			if rest&1 != 0 {
				// ^rest is 1 above bit 63-b, so the count stops there.
				b += bits.TrailingZeros64(^rest)
				run = 0
				continue
			}
			k := min(bits.TrailingZeros64(rest), 64-b)
			if run == 0 {
				start = w*64 + b
			}
			if run += k; run >= n {
				return start
			}
			b += k
		}
	}
	return -1
}

// windowLocked returns the start of the n-unit window holding the
// fewest held units, the lowest such. Callers hold the root mu.
func (r *Staging) windowLocked(n int) int {
	held := func(u int) int { return int(r.held[u/64] >> (u % 64) & 1) }
	in := 0
	for u := 0; u < n; u++ {
		in += held(u)
	}
	best, fewest := 0, in
	for start := 1; start+n <= r.units; start++ {
		in += held(start+n-1) - held(start-1)
		if in < fewest {
			best, fewest = start, in
		}
	}
	return best
}

// markLocked sets (held) or clears the bits of units [start, start+n).
func (r *Staging) markLocked(start, n int, held bool) {
	for u, end := start, start+n; u < end; {
		mask, k := unitMask(u, end)
		if held {
			r.held[u/64] |= mask
		} else {
			r.held[u/64] &^= mask
		}
		u += k
	}
	if held {
		r.free -= n
	} else {
		r.free += n
	}
}

// heldLocked reports whether every unit of [start, start+n) is held.
func (r *Staging) heldLocked(start, n int) bool {
	for u, end := start, start+n; u < end; {
		mask, k := unitMask(u, end)
		if r.held[u/64]&mask != mask {
			return false
		}
		u += k
	}
	return true
}

// rangeMask returns the mask of units [start, end) that fall in word w.
func rangeMask(w, start, end int) uint64 {
	lo, hi := max(start, w*64), min(end, w*64+64)
	if lo >= hi {
		return 0
	}
	mask, _ := unitMask(lo, hi)
	return mask
}

// unitMask returns the mask of units [u, end) that fall in u's word, and
// how many units that is.
func unitMask(u, end int) (uint64, int) {
	b := u % 64
	k := min(64-b, end-u)
	return ^uint64(0) >> (64 - k) << b, k
}

// Interrupt wakes every goroutine blocked in AcquireExtentCtx so it can
// observe a cancelled context.
func (s *Staging) Interrupt() {
	r := s.root()
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// FreeSlots reports how many units are free: for a view, clamped to the
// view's remaining quota. Free units need not be contiguous.
func (s *Staging) FreeSlots() int {
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.free
	if s.parent != nil {
		n = min(n, s.limit-s.used)
	}
	return n
}

// InFlight reports how many units the view (or root) currently holds.
func (s *Staging) InFlight() int {
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.used
}
