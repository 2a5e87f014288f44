package errutil

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")
var errFatal = errors.New("fatal")

func fastPolicy() Policy {
	return Policy{BaseDelay: time.Microsecond}
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	calls := 0
	retries := 0
	p := fastPolicy()
	p.OnRetry = func(attempt int, err error) {
		retries++
		if !errors.Is(err, errFlaky) {
			t.Fatalf("OnRetry saw %v", err)
		}
	}
	err := Retry(context.Background(), p, func() error {
		calls++
		if calls < 3 {
			return errFlaky
		}
		return nil
	})
	if err != nil || calls != 3 || retries != 2 {
		t.Fatalf("err=%v calls=%d retries=%d", err, calls, retries)
	}
}

func TestRetryGivesUpAndWraps(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), fastPolicy(), func() error {
		calls++
		return errFlaky
	})
	if calls != 3 {
		t.Fatalf("calls %d, want 3", calls)
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("cause lost: %v", err)
	}
	if err.Error() == errFlaky.Error() {
		t.Fatal("give-up error not annotated with attempt count")
	}
}

func TestRetryNonRetryableReturnsImmediately(t *testing.T) {
	calls := 0
	p := fastPolicy()
	p.Retryable = func(err error) bool { return errors.Is(err, errFlaky) }
	err := Retry(context.Background(), p, func() error {
		calls++
		return errFatal
	})
	if calls != 1 || !errors.Is(err, errFatal) {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

func TestRetryCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := Retry(ctx, fastPolicy(), func() error { called = true; return nil })
	if !errors.Is(err, context.Canceled) || called {
		t.Fatalf("err=%v called=%v", err, called)
	}
}

// The backoff sleep is the shared ctx-aware Sleep: cancelling its ctx ends
// even an hour-long wait promptly, with the context's error.
func TestRetryCancelledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Sleep(ctx, time.Hour) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not return promptly after cancellation")
	}
	//nolint:staticcheck // nil ctx is the documented cancellation-disabled mode
	if err := Sleep(nil, time.Microsecond); err != nil {
		t.Fatalf("nil-ctx Sleep: %v", err)
	}
}

func TestDelayGrowsAndIsCapped(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond, Seed: 1}
	for attempt := 1; attempt <= 6; attempt++ {
		d := p.Delay(attempt)
		// Jitter keeps delay within [max/2, max] of the un-jittered value,
		// which doubles per retry up to the 10 ms cap.
		unjittered := min(time.Millisecond<<(attempt-1), 10*time.Millisecond)
		if d > unjittered || d < unjittered/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, unjittered/2, unjittered)
		}
	}
	// Determinism: same (Seed, attempt) → same delay.
	if p.Delay(3) != p.Delay(3) {
		t.Fatal("Delay not deterministic")
	}
	if (Policy{}).Delay(1) != (Policy{BaseDelay: 100 * time.Microsecond, Seed: 1}).Delay(1) {
		t.Fatal("zero Policy does not default to a 100µs base and seed 1")
	}
}
