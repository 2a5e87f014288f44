package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
)

func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	d := New(1<<20, InstantConfig())
	d.Close()
	done := make(chan *storage.Request, 1)
	req := &storage.Request{Buf: make([]byte, 512), Off: 0, Done: func(r *storage.Request) { done <- r }}
	d.Submit(req) // must not panic on the closed channel
	r := <-done
	if !errors.Is(r.Err, storage.ErrClosed) {
		t.Fatalf("err %v, want storage.ErrClosed", r.Err)
	}
	if _, err := d.ReadAt(make([]byte, 512), 0); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("ReadAt after close: %v, want storage.ErrClosed", err)
	}
}

func TestConcurrentSubmitAndCloseNoPanic(t *testing.T) {
	// Hammer Submit from many goroutines while Close runs: every request
	// must complete, either cleanly or with storage.ErrClosed — never panic.
	d := New(1<<20, InstantConfig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				done := make(chan struct{})
				req := &storage.Request{Buf: make([]byte, 512), Off: int64(i%64) * 512,
					Done: func(*storage.Request) { close(done) }}
				d.Submit(req)
				<-done
				if req.Err != nil && !errors.Is(req.Err, storage.ErrClosed) {
					t.Errorf("unexpected error: %v", req.Err)
					return
				}
			}
		}()
	}
	d.Close()
	wg.Wait()
}

func TestInjectedTransientSurfacesAndCounts(t *testing.T) {
	cfg := InstantConfig()
	cfg.Faults = &faults.Config{Seed: 11, TransientRate: 1}
	d := New(1<<20, cfg)
	defer d.Close()
	_, err := d.ReadAt(make([]byte, 512), 0)
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("err %v, want ErrTransient", err)
	}
	if got := d.Stats().Faults; got != 1 {
		t.Fatalf("Stats.Faults %d, want 1", got)
	}
	if d.Injector() == nil || d.Injector().Counts().Transient != 1 {
		t.Fatalf("injector counts %+v", d.Injector().Counts())
	}
}

func TestInjectedMediaErrorPersistsThroughDevice(t *testing.T) {
	d := New(1<<20, InstantConfig())
	defer d.Close()
	d.SetInjector(faults.NewInjector(faults.Config{
		MediaRanges: []faults.Range{{Off: 0, Len: 512}},
	}))
	for i := 0; i < 3; i++ {
		if _, err := d.ReadAt(make([]byte, 512), 0); !errors.Is(err, faults.ErrMedia) {
			t.Fatalf("attempt %d: %v, want ErrMedia", i, err)
		}
	}
	// Other offsets are unaffected, and detaching restores clean reads.
	if _, err := d.ReadAt(make([]byte, 512), 512); err != nil {
		t.Fatalf("clean offset failed: %v", err)
	}
	d.SetInjector(nil)
	if _, err := d.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("after detach: %v", err)
	}
}

func TestInjectedShortReadDeliversPrefix(t *testing.T) {
	d := New(1<<20, InstantConfig())
	want := make([]byte, 1024)
	for i := range want {
		want[i] = byte(i)
	}
	d.WriteAt(want, 0)
	d.SetInjector(faults.NewInjector(faults.Config{Seed: 2, ShortReadRate: 1}))
	defer d.Close()
	got := make([]byte, 1024)
	_, err := d.ReadAt(got, 0)
	if !errors.Is(err, faults.ErrShortRead) {
		t.Fatalf("err %v", err)
	}
	for i := 0; i < 512; i++ {
		if got[i] != want[i] {
			t.Fatalf("prefix byte %d: %d != %d", i, got[i], want[i])
		}
	}
	for i := 512; i < 1024; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d filled beyond short read", i)
		}
	}
}

// TestStragglerDelayContextAware injects a straggler whose modeled delay
// is far longer than the test timeout and asserts that cancelling the
// request's context unblocks the read promptly — pipeline teardown must
// not sleep out a fault-injected StragglerDelay.
func TestStragglerDelayContextAware(t *testing.T) {
	cfg := InstantConfig()
	cfg.TimeScale = 1 // do not shrink the injected delay
	d := New(1<<20, cfg)
	defer d.Close()
	d.SetInjector(faults.NewInjector(faults.Config{
		Seed:           1,
		StragglerRate:  1.0, // every read stalls
		StragglerDelay: time.Hour,
	}))

	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	errCh := make(chan error, 1)
	go func() {
		_, err := d.ReadAtCtx(ctx, make([]byte, 512), 0)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read reach the service wait
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned read returned %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("cancellation took %v", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled read still blocked behind the straggler delay")
	}
}

// TestStragglerDelayNilCtxStillModeled: without a context the modeled
// delay still applies (a short one here, so the test stays fast).
func TestStragglerDelayNilCtxStillModeled(t *testing.T) {
	cfg := InstantConfig()
	cfg.TimeScale = 1
	d := New(1<<20, cfg)
	defer d.Close()
	d.SetInjector(faults.NewInjector(faults.Config{
		Seed:           1,
		StragglerRate:  1.0,
		StragglerDelay: 30 * time.Millisecond,
	}))
	start := time.Now()
	if _, err := d.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("straggler read failed: %v", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("straggler delay not modeled: read returned in %v", waited)
	}
}
