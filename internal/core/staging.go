package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
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
// One pool serves one job: an engine builds its own, data-parallel
// workers share their parent's, and the daemon gives each admitted job
// one of its own.
type Staging struct {
	unitBytes int
	units     int
	data      []byte
	budget    *hostmem.Budget

	// The allocator state, guarded by mu. Bit u of held is set
	// while unit u belongs to an extent (and always beyond the last unit,
	// so no run reaches past it); free counts the clear bits.
	mu     sync.Mutex
	cond   *sync.Cond
	held   []uint64
	free   int
	queue  []uint64    // tickets of blocked acquires, oldest first
	ticket uint64      // last ticket handed to a waiter
	resv   reservation // the first waiter's overtakes and window
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

// Carve returns a new unpinned pool of limit units of s's unit size,
// limit at most s's. It stays only because the benchmark's serve replay
// calls it; both go together.
func (s *Staging) Carve(limit int) (*Staging, error) {
	if limit < 1 || limit > s.units {
		return nil, fmt.Errorf("core: carve limit %d of %d-unit pool", limit, s.units)
	}
	return NewStaging(nil, limit, s.unitBytes)
}

// Close unpins the pool from the host budget and wakes every blocked
// acquire with an error.
func (s *Staging) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.budget != nil {
		s.budget.Unpin(int64(s.units) * int64(s.unitBytes))
	}
	s.cond.Broadcast()
}

// Slots returns the pool capacity in units.
func (s *Staging) Slots() int { return s.units }

// UnitsFor returns how many units a read of n bytes acquires.
func (s *Staging) UnitsFor(n int) int { return max(1, (n+s.unitBytes-1)/s.unitBytes) }

// AcquireExtentCtx blocks until n contiguous units are free outside the
// window an earlier blocked acquire reserved, ctx is cancelled, or the
// pool is closed. A cancelled ctx must be paired with an Interrupt (the
// epoch teardown does this) to guarantee prompt wake-up. An extent
// larger than the pool is an error: waiting could never satisfy it.
func (s *Staging) AcquireExtentCtx(ctx context.Context, n int) (Extent, error) {
	if n < 1 || n > s.units {
		return Extent{}, fmt.Errorf("core: staging extent of %d units in a %d-unit pool", n, s.units)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.takeLocked(n, 0); ok {
		return e, nil
	}
	s.ticket++
	id := s.ticket
	s.queue = append(s.queue, id)
	defer s.dequeueLocked(id)
	for {
		if s.closed {
			return Extent{}, fmt.Errorf("core: staging buffer closed")
		}
		if err := ctx.Err(); err != nil {
			return Extent{}, err
		}
		if e, ok := s.takeLocked(n, id); ok {
			return e, nil
		}
		s.cond.Wait()
	}
}

// TryAcquireExtent returns n contiguous units if they are free now
// outside any reserved window.
func (s *Staging) TryAcquireExtent(n int) (Extent, bool) {
	if n < 1 {
		return Extent{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeLocked(n, 0)
}

// ReleaseExtent returns an extent to the pool. Releasing units that are
// not held is a bug and panics.
func (s *Staging) ReleaseExtent(e Extent) {
	start, n := int(e.Start), int(e.N)
	s.mu.Lock()
	if n < 1 || start < 0 || start+n > s.units || !s.heldLocked(start, n) {
		s.mu.Unlock()
		panic(fmt.Sprintf("core: release of staging extent [%d,+%d) not held", start, n))
	}
	s.markLocked(start, n, false)
	wake := len(s.queue) > 0
	s.mu.Unlock()
	if wake {
		// Waiters need different extents and sit behind one FIFO head,
		// which a single Signal might miss.
		s.cond.Broadcast()
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

// takeLocked takes n units if a run is free. The acquire with ticket
// self (0 for one that never queued) may take any free run when it is
// first in line, and reserves a window when it finds none and has been
// overtaken enough; every other acquire skips the reserved window.
// Callers hold mu.
func (s *Staging) takeLocked(n int, self uint64) (Extent, bool) {
	if s.closed {
		return Extent{}, false
	}
	var head uint64
	if len(s.queue) > 0 {
		head = s.queue[0]
	}
	if s.resv.id != head {
		s.resv = reservation{id: head} // a new first in line
	}
	var start int
	if head != 0 && head == self {
		if start = s.findLocked(n, reservation{}); start < 0 {
			if s.resv.n == 0 && s.resv.overtakes >= maxOvertakes {
				s.resv.start, s.resv.n = s.windowLocked(n), n
			}
			return Extent{}, false
		}
		s.resv = reservation{}
	} else {
		if start = s.findLocked(n, s.resv); start < 0 {
			return Extent{}, false
		}
		if head != 0 {
			s.resv.overtakes++
		}
	}
	s.markLocked(start, n, true)
	return Extent{Start: int32(start), N: int32(n)}, true
}

// dequeueLocked drops ticket id from the wait queue, with its
// reservation, and lets the waiters behind it re-check whether they are
// now first in line.
func (s *Staging) dequeueLocked(id uint64) {
	if i := slices.Index(s.queue, id); i >= 0 {
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
	}
	if s.resv.id == id {
		s.resv = reservation{}
	}
	if len(s.queue) > 0 {
		s.cond.Broadcast()
	}
}

// findLocked returns the first unit of the lowest run of n free units
// outside skip's window, or -1. Callers hold mu.
func (s *Staging) findLocked(n int, skip reservation) int {
	if n > s.free {
		return -1
	}
	run, start := 0, 0
	for w, word := range s.held {
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
// fewest held units, the lowest such. Callers hold mu.
func (s *Staging) windowLocked(n int) int {
	held := func(u int) int { return int(s.held[u/64] >> (u % 64) & 1) }
	in := 0
	for u := 0; u < n; u++ {
		in += held(u)
	}
	best, fewest := 0, in
	for start := 1; start+n <= s.units; start++ {
		in += held(start+n-1) - held(start-1)
		if in < fewest {
			best, fewest = start, in
		}
	}
	return best
}

// markLocked sets (held) or clears the bits of units [start, start+n).
func (s *Staging) markLocked(start, n int, held bool) {
	for u, end := start, start+n; u < end; {
		mask, k := unitMask(u, end)
		if held {
			s.held[u/64] |= mask
		} else {
			s.held[u/64] &^= mask
		}
		u += k
	}
	if held {
		s.free -= n
	} else {
		s.free += n
	}
}

// heldLocked reports whether every unit of [start, start+n) is held.
func (s *Staging) heldLocked(start, n int) bool {
	for u, end := start, start+n; u < end; {
		mask, k := unitMask(u, end)
		if s.held[u/64]&mask != mask {
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
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// FreeSlots reports how many units are free. Free units need not be
// contiguous.
func (s *Staging) FreeSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free
}

// InFlight reports how many units extents currently hold.
func (s *Staging) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.units - s.free
}
