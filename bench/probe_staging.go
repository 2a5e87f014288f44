package main

import (
	"sync"
	"time"

	"gnndrive/internal/core"
)

// stagingPoll samples a staging pool (or a tenant's quota view) while
// the engine runs: the share of samples that found no acquirable slot is
// how often an extractor asking then would have had to wait.
type stagingPoll struct {
	quit           chan struct{}
	wg             sync.WaitGroup
	polls, blocked int64
}

func watchStaging(s *core.Staging) *stagingPoll {
	p := &stagingPoll{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				p.polls++
				if s.FreeSlots() == 0 {
					p.blocked++
				}
			}
		}
	}()
	return p
}

// stop ends the polling and returns the blocked share.
func (p *stagingPoll) stop() float64 {
	if p == nil {
		return 0
	}
	close(p.quit)
	p.wg.Wait()
	return ratio(float64(p.blocked), float64(p.polls))
}

// acquireSlot takes a staging slot the way the extractor's submit loop
// does: try first, and block only when nothing is in flight to free one.
func (r *replay) acquireSlot(mayBlock bool) (int32, bool, error) {
	t0 := time.Now()
	slot, ok := r.staging.TryAcquire()
	var err error
	if !ok && mayBlock {
		slot, err = r.staging.AcquireCtx(r.ctx)
		ok = err == nil
	}
	r.acquireNs += int64(time.Since(t0))
	r.acquires++
	return slot, ok, err
}

func (r *replay) stagingMetrics(m metricSet, batches float64) {
	m["staging.acquire_us"] = ratio(float64(r.acquireNs)/1e3, batches)
}
