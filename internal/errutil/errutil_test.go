package errutil

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFirstErrorKeepsFirst(t *testing.T) {
	var f FirstError
	if f.Failed() || f.Get() != nil {
		t.Fatal("zero value must be clean")
	}
	f.Set(nil) // ignored
	if f.Failed() {
		t.Fatal("nil Set must not fail")
	}
	first := errors.New("first")
	f.Set(first)
	f.Set(errors.New("second"))
	if f.Get() != first {
		t.Fatalf("got %v", f.Get())
	}
}

func TestFirstErrorMixedTypesConcurrent(t *testing.T) {
	var f FirstError
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				f.Set(fmt.Errorf("wrapped %d: %w", i, errors.New("inner")))
			} else {
				f.Set(errors.New("plain"))
			}
		}(i)
	}
	wg.Wait()
	if !f.Failed() {
		t.Fatal("should have recorded an error")
	}
}

// TestRetrySleepsDelaySchedule pins that Retry waits out Delay's exact
// schedule: Delay is deterministic in (Seed, attempt), so the two backoffs
// of a three-attempt loop are known up front and bound its wall time.
func TestRetrySleepsDelaySchedule(t *testing.T) {
	p := Policy{BaseDelay: 2 * time.Millisecond, Seed: 7}
	calls := 0
	boom := errors.New("boom")
	start := time.Now()
	err := Retry(context.Background(), p, func() error { calls++; return boom })
	elapsed := time.Since(start)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if want := p.Delay(1) + p.Delay(2); elapsed < want {
		t.Fatalf("Retry took %v, less than its backoff schedule %v", elapsed, want)
	}
}

// TestRetryNilContext pins the nil-ctx contract: cancellation is simply
// disabled and the loop still runs to budget exhaustion.
func TestRetryNilContext(t *testing.T) {
	calls, retries := 0, 0
	p := fastPolicy()
	p.OnRetry = func(int, error) { retries++ }
	boom := errors.New("boom")
	//nolint:staticcheck // nil ctx is the documented cancellation-disabled mode
	err := Retry(nil, p, func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls = %d retries = %d, want 3 and 2", calls, retries)
	}
}

// TestRetrySleepErrorAborts verifies a backoff sleep that ends in an error
// (its ctx cancelled, e.g. by a drain) stops the loop immediately with that
// error.
func TestRetrySleepErrorAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := Policy{BaseDelay: time.Hour, OnRetry: func(int, error) { cancel() }}
	calls := 0
	err := Retry(ctx, p, func() error { calls++; return errors.New("boom") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want %v", err, context.Canceled)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

// TestPaceStartsAtArrivalOrPreviousFinish pins the FIFO rule on fixed
// clocks: service starts at the later of the arrival and the previous
// finish, never at the moment Pace runs, and a zero arrival means now,
// never the zero time (whose finish would lie in the past forever).
func TestPaceStartsAtArrivalOrPreviousFinish(t *testing.T) {
	const svc = 100 * time.Microsecond
	now := time.Now()
	past := now.Add(-time.Hour)
	for _, tc := range []struct {
		name               string
		arrival, busyUntil time.Time
		want               time.Time
	}{
		{"idle server starts at the arrival", past, past.Add(-time.Second), past.Add(svc)},
		{"busy server starts at its previous finish", past, past.Add(time.Minute), past.Add(time.Minute + svc)},
		{"no arrival starts now", time.Time{}, time.Time{}, now.Add(svc)},
	} {
		got, err := new(Pacer).Pace(nil, tc.arrival, tc.busyUntil, svc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := got.Sub(tc.want).Abs(); d > time.Second {
			t.Errorf("%s: finish %v off the model's %v by %v", tc.name, got, tc.want, d)
		}
	}
}

// TestPaceReusesItsTimerZeroAlloc: after its first wait a Pacer allocates
// nothing, and a wait that ctx cut short leaves no stale tick behind to
// end the next one early.
func TestPaceReusesItsTimerZeroAlloc(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var p Pacer
	wait := PaceSlack + 200*time.Microsecond
	if _, err := p.Pace(ctx, time.Time{}, time.Time{}, wait); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := p.Pace(ctx, time.Time{}, time.Time{}, wait); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Pace allocated %.1f times a wait", n)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	for i := 0; i < 50; i++ {
		// The cut-short wait's timer fires while nobody listens.
		p.Pace(cancelled, time.Time{}, time.Time{}, wait)
		time.Sleep(wait + 100*time.Microsecond)
		start := time.Now()
		if _, err := p.Pace(ctx, start, time.Time{}, 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < 2*time.Millisecond {
			t.Fatalf("a wait after a cancelled one ended after %v, before its 2ms", got)
		}
	}
}

// TestPaceSleepsOnlyPastTheSlack: a finish within PaceSlack of the wall
// clock returns at once, without consulting ctx; one further ahead is
// slept out, and a cancelled ctx ends that sleep with its error and the
// finish still reported.
func TestPaceSleepsOnlyPastTheSlack(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var p Pacer
	if _, err := p.Pace(cancelled, time.Time{}, time.Time{}, PaceSlack/2); err != nil {
		t.Fatalf("a finish inside the slack slept: %v", err)
	}
	finish, err := p.Pace(nil, time.Now(), time.Time{}, 5*time.Millisecond)
	if err != nil || time.Now().Before(finish) {
		t.Fatalf("returned %v before the modeled finish (err %v)", time.Until(finish), err)
	}
	start := time.Now()
	finish, err = p.Pace(cancelled, start, time.Time{}, time.Hour)
	if !errors.Is(err, context.Canceled) || finish.Sub(start) != time.Hour {
		t.Fatalf("cancelled pace: err %v, finish %v after the arrival", err, finish.Sub(start))
	}
}
