package core

import (
	"context"
	"sync"
	"testing"

	"gnndrive/internal/device"
)

// gateRecorder counts permits for the extractor-wiring test.
type gateRecorder struct {
	mu       sync.Mutex
	out      int
	maxOut   int
	acquires int
}

func (g *gateRecorder) Acquire(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g.grant(n)
	return nil
}

func (g *gateRecorder) TryAcquire(n int) bool { g.grant(n); return true }

func (g *gateRecorder) grant(n int) {
	g.mu.Lock()
	g.out += n
	g.acquires += n
	if g.out > g.maxOut {
		g.maxOut = g.out
	}
	g.mu.Unlock()
}

func (g *gateRecorder) Release(n int) {
	g.mu.Lock()
	g.out -= n
	if g.out < 0 {
		panic("gate over-release")
	}
	g.mu.Unlock()
}

var _ IOGate = (*gateRecorder)(nil)

// boundedGate is a real n-permit semaphore for throttling tests.
type boundedGate struct {
	tokens chan struct{}
	mu     sync.Mutex
	out    int
	maxOut int
}

func newBoundedGate(n int) *boundedGate {
	g := &boundedGate{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		g.tokens <- struct{}{}
	}
	return g
}

func (g *boundedGate) note(n int) {
	g.mu.Lock()
	g.out += n
	if g.out > g.maxOut {
		g.maxOut = g.out
	}
	g.mu.Unlock()
}

func (g *boundedGate) Acquire(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		select {
		case <-g.tokens:
		case <-ctx.Done():
			for j := 0; j < i; j++ {
				g.tokens <- struct{}{}
			}
			return ctx.Err()
		}
	}
	g.note(n)
	return nil
}

func (g *boundedGate) TryAcquire(n int) bool {
	for i := 0; i < n; i++ {
		select {
		case <-g.tokens:
		default:
			for j := 0; j < i; j++ {
				g.tokens <- struct{}{}
			}
			return false
		}
	}
	g.note(n)
	return true
}

func (g *boundedGate) Release(n int) {
	g.mu.Lock()
	g.out -= n
	g.mu.Unlock()
	for i := 0; i < n; i++ {
		g.tokens <- struct{}{}
	}
}

var _ IOGate = (*boundedGate)(nil)

// TestIOGatePermitsBalance runs full epochs through both extract modes
// and checks the permit ledger: consulted at least once, zero permits
// outstanding afterwards (no leak on any completion path).
func TestIOGatePermitsBalance(t *testing.T) {
	for _, sync := range []bool{false, true} {
		name := "async"
		if sync {
			name = "sync"
		}
		t.Run(name, func(t *testing.T) {
			rig := newRig(t, device.InstantConfig(), 64<<20)
			opts := testOpts()
			opts.SyncExtraction = sync
			g := &gateRecorder{}
			opts.IOGate = g
			e := newEngine(t, rig, opts)
			if _, err := e.TrainEpochFrom(context.Background(), 0, 0); err != nil {
				t.Fatal(err)
			}
			g.mu.Lock()
			defer g.mu.Unlock()
			if g.acquires == 0 {
				t.Fatal("gate never consulted")
			}
			if g.out != 0 {
				t.Fatalf("%d permits leaked after the epoch", g.out)
			}
		})
	}
}

// TestIOGateBoundedThrottles proves a tight permit budget is honored —
// never more in flight than the gate allows — while the epoch still
// completes (liveness under throttling).
func TestIOGateBoundedThrottles(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	g := newBoundedGate(2)
	opts.IOGate = g
	e := newEngine(t, rig, opts)
	if _, err := e.TrainEpochFrom(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.maxOut > 2 {
		t.Fatalf("gate max in flight %d exceeds budget 2", g.maxOut)
	}
	if g.out != 0 {
		t.Fatalf("%d permits leaked", g.out)
	}
}
