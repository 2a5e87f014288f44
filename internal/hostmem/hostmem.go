// Package hostmem models the host DRAM budget of the training machine.
//
// The paper's experiments bound host memory (8-128 GB) and attribute the
// baselines' slowdowns and OOMs to how that budget is split between pinned
// application buffers (staging buffers, Ginex's caches, CPU-mode feature
// buffers) and the OS page cache. Budget tracks pinned allocations
// explicitly; whatever is left over is the page-cache pool, so growing a
// pinned buffer shrinks the cache exactly as it would on Linux.
package hostmem

import (
	"errors"
	"fmt"
	"sync"
)

// ErrOOM is returned when a pin request does not fit in the budget.
var ErrOOM = errors.New("hostmem: out of memory")

// Budget is a host-memory capacity shared by pinned allocations and the
// page cache. It is safe for concurrent use.
type Budget struct {
	mu       sync.Mutex
	capacity int64
	pinned   int64
}

// NewBudget creates a budget of capacity bytes.
func NewBudget(capacity int64) *Budget {
	if capacity <= 0 {
		panic(fmt.Sprintf("hostmem: capacity %d", capacity))
	}
	return &Budget{capacity: capacity}
}

// Capacity returns the total budget in bytes.
func (b *Budget) Capacity() int64 { return b.capacity }

// Pin reserves n bytes of host memory for an application buffer.
// It fails with ErrOOM (wrapped with the label) if the budget is exceeded.
func (b *Budget) Pin(label string, n int64) error {
	if n < 0 {
		panic(fmt.Sprintf("hostmem: Pin(%s, %d)", label, n))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pinned+n > b.capacity {
		return fmt.Errorf("pin %q of %d bytes with %d/%d pinned: %w",
			label, n, b.pinned, b.capacity, ErrOOM)
	}
	b.pinned += n
	return nil
}

// Unpin releases n bytes previously pinned.
func (b *Budget) Unpin(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pinned -= n
	if b.pinned < 0 {
		panic("hostmem: unpinned more than pinned")
	}
}

// Pinned returns the bytes currently pinned.
func (b *Budget) Pinned() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pinned
}

// CachePool returns the bytes currently available to the page cache:
// capacity minus pinned allocations.
func (b *Budget) CachePool() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity - b.pinned
}
