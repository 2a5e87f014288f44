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
