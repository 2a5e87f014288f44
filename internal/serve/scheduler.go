// Package serve is the multi-tenant training daemon: it admits
// training jobs against one shared resource envelope (staging units,
// feature-buffer bytes, extract-I/O tokens), runs each through the
// trainsim harness with a staging pool of its own and a fair-share view
// of the I/O tokens, supervises them with per-job watchdogs and requeue
// backoff, and drains gracefully — checkpointing every running job so a
// restarted daemon resumes each one on a bit-identical trajectory.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gnndrive/internal/core"
)

// FairScheduler rations extract-read permits between tenants by
// work-conserving max-min fairness: a tenant under its fair share
// (capacity / registered tenants) is granted immediately while free
// permits exist; a tenant over its share is granted only when no other
// tenant is waiting. One slow or greedy job therefore cannot starve its
// neighbors' extract I/O, but a lone job still gets the whole pipe.
type FairScheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	out      int // permits currently granted across all tenants
	tenants  map[string]*tenantGate
	waiting  int // tenants with at least one blocked Acquire
	closed   bool
	// waits accumulates per-tenant time spent blocked in Acquire. Entries
	// survive Unregister so /metrics can report finished jobs' totals.
	waits map[string]time.Duration
}

// NewFairScheduler builds a scheduler over capacity permits.
func NewFairScheduler(capacity int) (*FairScheduler, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("serve: scheduler capacity %d must be positive", capacity)
	}
	s := &FairScheduler{
		capacity: capacity,
		tenants:  make(map[string]*tenantGate),
		waits:    make(map[string]time.Duration),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Capacity returns the total permit count.
func (s *FairScheduler) Capacity() int { return s.capacity }

// QueueWaits returns each tenant's cumulative time spent blocked in
// Acquire waiting for extract-read permits, including tenants that have
// since unregistered. A high value relative to wall time means the
// tenant was I/O-starved by its neighbors rather than by the disk.
func (s *FairScheduler) QueueWaits() map[string]time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]time.Duration, len(s.waits))
	for id, d := range s.waits {
		out[id] = d
	}
	return out
}

// tenantGate is the per-job view handed to an engine as its core.IOGate.
type tenantGate struct {
	s       *FairScheduler
	id      string
	out     int
	waiters int
	gone    bool
}

var _ core.IOGate = (*tenantGate)(nil)

// Register adds a tenant and returns its gate view. Registering an id
// twice replaces the old view (its permits are forgotten — callers
// unregister first on the normal path).
func (s *FairScheduler) Register(id string) core.IOGate {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := &tenantGate{s: s, id: id}
	s.tenants[id] = g
	if _, ok := s.waits[id]; !ok {
		s.waits[id] = 0 // report the tenant even before it ever blocks
	}
	// Shares shrank for everyone; re-evaluate blocked acquires.
	s.cond.Broadcast()
	return g
}

// Unregister removes a tenant, returning any permits it still holds.
func (s *FairScheduler) Unregister(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.tenants[id]
	if !ok {
		return
	}
	g.gone = true
	s.out -= g.out
	g.out = 0
	delete(s.tenants, id)
	s.cond.Broadcast()
}

// Close wakes every blocked Acquire with an error.
func (s *FairScheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fairShare is the per-tenant permit allowance; callers hold s.mu.
func (s *FairScheduler) fairShare() int {
	n := len(s.tenants)
	if n == 0 {
		n = 1
	}
	share := s.capacity / n
	if share < 1 {
		share = 1
	}
	return share
}

// canGrant reports whether tenant g may take n more permits now;
// callers hold s.mu.
func (s *FairScheduler) canGrant(g *tenantGate, n int) bool {
	if s.capacity-s.out < n {
		return false
	}
	if g.out+n <= s.fairShare() {
		return true
	}
	// Beyond fair share: work-conserving, but only while nobody else
	// needs the permits.
	return s.waiting-boolToInt(g.waiters > 0) == 0
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Acquire blocks until n permits are granted or ctx is cancelled.
func (g *tenantGate) Acquire(ctx context.Context, n int) error {
	if n <= 0 {
		return nil
	}
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.capacity {
		return fmt.Errorf("serve: acquire %d exceeds scheduler capacity %d", n, s.capacity)
	}
	entered := false
	var blockedAt time.Time
	defer func() {
		if entered {
			g.waiters--
			if g.waiters == 0 {
				s.waiting--
			}
			// Cancelled waits count too: the tenant still queued that long.
			s.waits[g.id] += time.Since(blockedAt)
		}
	}()
	var stop func() bool
	if ctx != nil {
		// cond.Wait can't select on ctx.Done; a cancellation callback
		// broadcasts so the waiter re-checks ctx.Err below.
		stop = context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if s.closed || g.gone {
			return fmt.Errorf("serve: scheduler closed")
		}
		if s.canGrant(g, n) {
			g.out += n
			s.out += n
			return nil
		}
		if !entered {
			entered = true
			blockedAt = time.Now()
			if g.waiters == 0 {
				s.waiting++
			}
			g.waiters++
		}
		s.cond.Wait()
	}
}

// TryAcquire grants n permits only if available within fairness limits.
func (g *tenantGate) TryAcquire(n int) bool {
	if n <= 0 {
		return true
	}
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || g.gone || !s.canGrant(g, n) {
		return false
	}
	g.out += n
	s.out += n
	return true
}

// Release returns n permits to the pool.
func (g *tenantGate) Release(n int) {
	if n <= 0 {
		return
	}
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.gone {
		return // Unregister already reclaimed this tenant's permits
	}
	g.out -= n
	s.out -= n
	if g.out < 0 || s.out < 0 {
		panic("serve: IOGate over-release")
	}
	s.cond.Broadcast()
}
