package core

import (
	"context"
	"fmt"
	"sync"

	"gnndrive/internal/hostmem"
	"gnndrive/internal/storage"
)

// Staging is the bounded host-memory buffer through which feature bytes
// travel from SSD to the device feature buffer (§4.2). It is a pool of
// fixed-size slots: extractors acquire a slot per outstanding read and
// release it once the host-to-device transfer completes, so the host
// footprint is bounded by slots x slotBytes no matter how large the
// mini-batches are. The whole pool is pinned in the host budget.
//
// A Staging is either a root pool (owns the memory and the budget pin)
// or a quota view carved from a root with Carve: views share the root's
// slots, backing region, and wait queue, but each is capped at its own
// slot limit so one tenant of a shared pool cannot starve the others.
type Staging struct {
	slotBytes int
	slots     int
	data      []byte
	budget    *hostmem.Budget

	// Quota-view state: parent is nil on a root pool. A view's used
	// counter is guarded by the root's mu (views have no lock of their
	// own), and limit is immutable after Carve.
	parent *Staging
	limit  int
	used   int

	mu     sync.Mutex
	cond   *sync.Cond
	free   []int32
	views  int // carved views outstanding (root only): switches Release to Broadcast
	closed bool
}

// NewStaging pins a pool of slots x slotBytes host bytes. Fails with the
// budget's OOM error when the pin does not fit.
func NewStaging(budget *hostmem.Budget, slots, slotBytes int) (*Staging, error) {
	if slots < 1 || slotBytes < 1 {
		return nil, fmt.Errorf("core: staging %d x %d", slots, slotBytes)
	}
	total := int64(slots) * int64(slotBytes)
	if budget != nil {
		if err := budget.Pin("staging buffer", total); err != nil {
			return nil, err
		}
	}
	s := &Staging{
		slotBytes: slotBytes,
		slots:     slots,
		// Sector-aligned backing memory: slot sizes are already 512-byte
		// multiples (engine sizing), so an aligned base keeps every slot
		// address aligned and the file backend's O_DIRECT path reachable.
		data:   storage.AlignedBuf(int(total), 512),
		budget: budget,
	}
	s.cond = sync.NewCond(&s.mu)
	s.free = make([]int32, slots)
	for i := range s.free {
		s.free[i] = int32(i)
	}
	return s, nil
}

// Carve returns a quota view of the root pool: the view hands out the
// root's slots from the shared free list but never holds more than limit
// at once, so concurrent tenants sharing one pinned pool get max-min
// isolation instead of best-effort racing. Views cannot be re-carved.
// Closing a view only retires the view (waking its waiters); slots it
// still holds return to the root as their transfers complete, and the
// root's budget pin is untouched.
func (s *Staging) Carve(limit int) (*Staging, error) {
	if s.parent != nil {
		return nil, fmt.Errorf("core: carve of a carved staging view")
	}
	if limit < 1 || limit > s.slots {
		return nil, fmt.Errorf("core: carve limit %d of %d-slot pool", limit, s.slots)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: carve of closed staging pool")
	}
	s.views++
	return &Staging{
		slotBytes: s.slotBytes,
		slots:     s.slots,
		data:      s.data,
		parent:    s,
		limit:     limit,
	}, nil
}

// root returns the Staging owning the lock, cond, and free list.
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
	if s.parent != nil {
		r.views--
	} else if s.budget != nil {
		s.budget.Unpin(int64(s.slots) * int64(s.slotBytes))
	}
	r.cond.Broadcast()
}

// Bytes returns the pinned pool size (for a view: the quota's worth).
func (s *Staging) Bytes() int64 { return int64(s.Slots()) * int64(s.slotBytes) }

// SlotBytes returns the size of one slot.
func (s *Staging) SlotBytes() int { return s.slotBytes }

// Slots returns the pool capacity; for a view, its quota limit.
func (s *Staging) Slots() int {
	if s.parent != nil {
		return s.limit
	}
	return s.slots
}

// AcquireCtx blocks until a slot is free (and, on a view, quota
// headroom exists), ctx is cancelled, or the pool is closed. A cancelled
// ctx must be paired with an Interrupt (the epoch teardown does this) to
// guarantee prompt wake-up.
func (s *Staging) AcquireCtx(ctx context.Context) (int32, error) {
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	for (len(r.free) == 0 || s.used >= s.limitLocked()) && !r.closed && !s.closed {
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		r.cond.Wait()
	}
	if r.closed || s.closed {
		return -1, fmt.Errorf("core: staging buffer closed")
	}
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	return s.takeLocked(), nil
}

// limitLocked returns the effective in-flight cap (root pools are only
// bounded by the free list). Callers hold the root mu.
func (s *Staging) limitLocked() int {
	if s.parent != nil {
		return s.limit
	}
	return s.slots + 1 // never binding: len(free) bounds the root
}

// takeLocked pops a free slot and charges it to the view's quota.
// Callers hold the root mu.
func (s *Staging) takeLocked() int32 {
	r := s.root()
	slot := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	s.used++
	return slot
}

// Interrupt wakes every goroutine blocked in AcquireCtx so it can observe
// a cancelled context.
func (s *Staging) Interrupt() {
	r := s.root()
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// TryAcquire returns a slot if one is free (within quota, on a view).
func (s *Staging) TryAcquire() (int32, bool) {
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) == 0 || s.used >= s.limitLocked() || r.closed || s.closed {
		return -1, false
	}
	return s.takeLocked(), true
}

// Release returns a slot to the pool.
func (s *Staging) Release(slot int32) {
	r := s.root()
	r.mu.Lock()
	if int(slot) < 0 || int(slot) >= r.slots {
		r.mu.Unlock()
		panic(fmt.Sprintf("core: release of bad staging slot %d", slot))
	}
	r.free = append(r.free, slot)
	if s.used > 0 {
		s.used--
	}
	hetero := r.views > 0 || s.parent != nil
	r.mu.Unlock()
	if hetero {
		// Views wait on heterogeneous predicates (free slot AND their own
		// quota headroom) sharing one cond: a single Signal could wake a
		// quota-exhausted view while an eligible one stays parked.
		r.cond.Broadcast()
	} else {
		r.cond.Signal()
	}
}

// Buf returns the byte region of a slot.
func (s *Staging) Buf(slot int32) []byte {
	return s.data[int(slot)*s.slotBytes : (int(slot)+1)*s.slotBytes]
}

// FreeSlots reports how many slots are currently acquirable: for a view,
// the shared free list clamped to the view's remaining quota.
func (s *Staging) FreeSlots() int {
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.free)
	if s.parent != nil {
		if headroom := s.limit - s.used; headroom < n {
			n = headroom
		}
	}
	return n
}

// InFlight reports how many slots the view (or root) currently holds.
func (s *Staging) InFlight() int {
	r := s.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.used
}
