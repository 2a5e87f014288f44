// Package errutil holds what the pipelines share for waiting and
// failing: first-error capture, the retry policy and its ctx-aware sleep,
// and the modeled FIFO server both simulated devices are built on.
package errutil

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// FirstError records the first error Set on it; later errors are dropped.
// Safe for concurrent use (unlike atomic.Value, it tolerates mixed
// concrete error types).
type FirstError struct {
	mu  sync.Mutex
	err error
}

// Set stores err if it is the first non-nil error seen.
func (f *FirstError) Set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Get returns the recorded error, if any.
func (f *FirstError) Get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Failed reports whether an error has been recorded.
func (f *FirstError) Failed() bool { return f.Get() != nil }

// The retry schedule every Policy shares: three attempts in all, the
// delay doubling per retry up to a 10 ms cap, and up to half of each delay
// jittered away.
const (
	maxAttempts = 3
	maxDelay    = 10 * time.Millisecond
	multiplier  = 2
	jitter      = 0.5
)

// Policy bounds a retry loop: exponential backoff with jitter over the
// shared schedule, and a transient-vs-permanent classifier.
type Policy struct {
	// BaseDelay is the backoff before the first retry (0 means 100µs).
	BaseDelay time.Duration
	// Seed makes the jitter deterministic; 0 means 1.
	Seed uint64
	// Retryable classifies errors; nil retries everything.
	Retryable func(error) bool
	// OnRetry, when non-nil, observes each retry about to happen
	// (attempt is 1-based: the attempt that just failed).
	OnRetry func(attempt int, err error)
}

// Delay returns the jittered backoff before retry number attempt
// (1-based): BaseDelay doubled per earlier retry, capped at 10 ms, less a
// jitter fraction in [0, 0.5). It is deterministic in (Seed, attempt), so
// concurrent retriers sharing a policy de-synchronize without shared state
// and a test can compute the exact schedule.
func (p Policy) Delay(attempt int) time.Duration {
	d := p.BaseDelay
	if d == 0 {
		d = 100 * time.Microsecond
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= multiplier
	}
	d = min(d, maxDelay)
	u := splitmixUnit(seed ^ uint64(attempt)*0x9e3779b97f4a7c15)
	return time.Duration(float64(d) * (1 - jitter*u))
}

// Retry runs fn until it succeeds, permanently fails, exhausts the three
// attempts, or ctx is cancelled. The returned error preserves the
// underlying cause for errors.Is; on budget exhaustion it is annotated
// with the attempt count. Cancellation during a backoff sleep returns
// ctx.Err() promptly. A nil ctx disables cancellation entirely (same
// convention as storage.Request.Ctx) for callers that have no lifecycle
// to tie the loop to.
func Retry(ctx context.Context, p Policy, fn func() error) error {
	for attempt := 1; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		err := fn()
		if err == nil {
			return nil
		}
		if p.Retryable != nil && !p.Retryable(err) {
			return err
		}
		if attempt >= maxAttempts {
			return fmt.Errorf("gave up after %d attempts: %w", attempt, err)
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		if err := Sleep(ctx, p.Delay(attempt)); err != nil {
			return err
		}
	}
}

// Sleep blocks for d (not at all when d <= 0) or until ctx is cancelled,
// and returns ctx's error if it is cancelled by the time Sleep returns. A
// nil ctx never cancels. It is the one ctx-aware sleep for one-off
// waits: retry and requeue backoffs and injected fault delays.
func Sleep(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	if d > 0 {
		// An unheard timer needs no Stop: since go 1.23 an unreachable
		// timer is collected whether or not it fired.
		select {
		case <-time.NewTimer(d).C:
		case <-ctx.Done():
		}
	}
	return ctx.Err()
}

// PaceSlack is how far a modeled clock may lead the wall clock before
// its server defers a completion to a timer. A timer wake-up can land up
// to about a millisecond late, so a server that slept out every
// sub-millisecond service time would run at the timer's pace, not the
// model's; completing what is due within the slack at once instead lets
// a completion lead its modeled finish by at most PaceSlack.
const PaceSlack = 500 * time.Microsecond

// Finish returns the finish of a request of service time svc arriving at
// arrival (a zero arrival means now) on a FIFO server whose previous
// request finishes at busyUntil: service starts at max(arrival,
// busyUntil).
func Finish(arrival, busyUntil time.Time, svc time.Duration) time.Time {
	if arrival.IsZero() {
		arrival = time.Now()
	}
	if busyUntil.After(arrival) {
		arrival = busyUntil
	}
	return arrival.Add(svc)
}

// Server is a modeled FIFO server with no goroutine of its own: each
// channel of the simulated SSD is one, and so is the device's DMA
// engine. An entry finishes as Finish computes it, so a late
// delivery delays no later entry's modeled start and an idle server
// banks no credit. Entries are delivered in push order, none earlier than
// PaceSlack before its finish: on the pusher that found the server idle
// while the head is due, and otherwise from one reused timer. Serving an
// entry allocates nothing once the queue has grown.
type Server[T any] struct {
	deliver   func(v T, finish time.Time)
	mu        sync.Mutex
	busyUntil time.Time
	queued    []served[T]
	timer     *time.Timer
}

type served[T any] struct {
	v      T
	finish time.Time
}

// NewServer returns an idle server that hands each entry and its modeled
// finish to deliver, which may push again.
func NewServer[T any](deliver func(v T, finish time.Time)) *Server[T] {
	s := &Server[T]{deliver: deliver}
	s.timer = time.AfterFunc(time.Hour, s.Deliver)
	s.timer.Stop()
	return s
}

// Push queues v, arriving at arrival with service time svc, and reports
// whether the server was idle. Then, and only then, the caller must call
// Deliver, once it holds no lock that deliver takes.
func (s *Server[T]) Push(arrival time.Time, svc time.Duration, v T) (idle bool) {
	s.mu.Lock()
	s.busyUntil = Finish(arrival, s.busyUntil, svc)
	s.queued = append(s.queued, served[T]{v, s.busyUntil})
	idle = len(s.queued) == 1
	s.mu.Unlock()
	return idle
}

// Deliver delivers queued entries while the head is due, then arms the
// timer for the head. Only the pusher that found the server idle, or the
// timer, runs it; an entry leaves after its delivery, so none overtakes.
func (s *Server[T]) Deliver() {
	s.mu.Lock()
	for len(s.queued) > 0 {
		e := s.queued[0]
		if wait := time.Until(e.finish); wait > PaceSlack {
			s.timer.Reset(wait)
			break
		}
		s.mu.Unlock()
		s.deliver(e.v, e.finish)
		s.mu.Lock()
		s.queued = slices.Delete(s.queued, 0, 1)
	}
	s.mu.Unlock()
}

// splitmixUnit hashes x to a uniform float64 in [0, 1).
func splitmixUnit(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) * (1.0 / (1 << 53))
}
