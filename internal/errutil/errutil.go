// Package errutil holds tiny error helpers shared by the pipelines.
package errutil

import (
	"context"
	"fmt"
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
// waits: retry and requeue backoffs and injected fault delays; a paced
// server waits on its Pacer's reusable timer instead.
func Sleep(ctx context.Context, d time.Duration) error {
	if d > 0 {
		// A fresh Pacer's timer needs no Stop: since go 1.23 an unreachable
		// timer is collected whether or not it fired.
		return new(Pacer).sleep(ctx, d)
	}
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// PaceSlack is how far a modeled clock may lead the wall clock before
// the server it paces sleeps. A timer wake-up can land up to about a
// millisecond late, so a server that slept out every sub-millisecond
// service time would run at the timer's pace, not the model's; batching
// the waits instead lets a completion lead its modeled finish by at most
// PaceSlack.
const PaceSlack = 500 * time.Microsecond

// Pacer is the clock wait of one modeled FIFO server that serves on its
// own goroutine: each of the modeled SSD's channels owns one. (The
// device's DMA engine applies Finish and PaceSlack without a goroutine:
// it completes a due transfer on its submitter and the rest from one
// timer.) Every wait of the server reuses its one timer, so pacing
// allocates nothing after the first wait. The zero value is ready; a
// Pacer serves one goroutine.
type Pacer struct {
	timer *time.Timer
}

// Pace serves one request of service time svc on the server whose
// previous request finishes at busyUntil, and returns the request's
// finish, the server's next busyUntil, as Finish computes it: a wake-up
// that overslept delays no later request's modeled start and an idle
// server banks no credit. Pace sleeps until finish only when finish
// leads the wall clock by more than PaceSlack, and then returns ctx's
// error if ctx is cancelled meanwhile; finish holds either way, since
// the server stays busy for a request its caller abandoned.
func (p *Pacer) Pace(ctx context.Context, arrival, busyUntil time.Time, svc time.Duration) (time.Time, error) {
	finish := Finish(arrival, busyUntil, svc)
	if wait := time.Until(finish); wait > PaceSlack {
		return finish, p.sleep(ctx, wait)
	}
	return finish, nil
}

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

// sleep blocks for d on the Pacer's timer, or until ctx is cancelled,
// and returns ctx's error; a nil ctx never cancels.
func (p *Pacer) sleep(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	// Reset discards a tick that a wait cut short by ctx left unheard.
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	select {
	case <-p.timer.C:
	case <-ctx.Done():
	}
	return ctx.Err()
}

// splitmixUnit hashes x to a uniform float64 in [0, 1).
func splitmixUnit(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) * (1.0 / (1 << 53))
}
