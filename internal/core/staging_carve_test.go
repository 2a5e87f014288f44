package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/device"
)

func TestCarveQuotaEnforced(t *testing.T) {
	pool, err := NewStaging(nil, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	view, err := pool.Carve(2)
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	if view.Slots() != 2 || view.Bytes() != 2*512 {
		t.Fatalf("view Slots=%d Bytes=%d, want 2 and 1024", view.Slots(), view.Bytes())
	}
	a, ok := view.TryAcquire()
	if !ok {
		t.Fatal("first acquire failed")
	}
	b, ok := view.TryAcquire()
	if !ok {
		t.Fatal("second acquire failed")
	}
	// Pool still has 2 free slots, but the view's quota is spent.
	if _, ok := view.TryAcquire(); ok {
		t.Fatal("third acquire exceeded the carve limit")
	}
	if pool.FreeSlots() != 2 {
		t.Fatalf("pool free = %d, want 2", pool.FreeSlots())
	}
	if view.FreeSlots() != 0 || view.InFlight() != 2 {
		t.Fatalf("view free=%d inflight=%d, want 0 and 2", view.FreeSlots(), view.InFlight())
	}
	view.Release(a)
	if _, ok := view.TryAcquire(); !ok {
		t.Fatal("release did not restore quota headroom")
	}
	view.Release(b)
}

func TestCarveSharedPoolExhaustion(t *testing.T) {
	pool, err := NewStaging(nil, 2, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	a, err := pool.Carve(2)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := pool.Carve(2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	s1, _ := a.TryAcquire()
	s2, _ := b.TryAcquire()
	// Pool exhausted: both views within quota but no free slots.
	if _, ok := a.TryAcquire(); ok {
		t.Fatal("acquire beyond pool capacity")
	}
	// A blocked view waiter must wake when the *other* view releases
	// (Broadcast semantics across heterogeneous predicates).
	got := make(chan int32, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		slot, err := a.AcquireCtx(ctx)
		if err != nil {
			got <- -1
			return
		}
		got <- slot
	}()
	time.Sleep(10 * time.Millisecond)
	b.Release(s2)
	select {
	case slot := <-got:
		if slot < 0 {
			t.Fatal("blocked waiter errored instead of acquiring")
		}
		a.Release(slot)
	case <-time.After(5 * time.Second):
		t.Fatal("cross-view release did not wake the waiter")
	}
	a.Release(s1)
}

func TestCarveViewCloseWakesWaitersAndSparesRoot(t *testing.T) {
	pool, err := NewStaging(nil, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	view, err := pool.Carve(1)
	if err != nil {
		t.Fatal(err)
	}
	held, _ := view.TryAcquire()

	var wg sync.WaitGroup
	wg.Add(1)
	var acqErr error
	go func() {
		defer wg.Done()
		_, acqErr = view.AcquireCtx(context.Background())
	}()
	time.Sleep(10 * time.Millisecond)
	view.Close()
	wg.Wait()
	if acqErr == nil {
		t.Fatal("acquire on closed view succeeded")
	}
	// The slot the view still held returns to the root on release and
	// the root pool keeps working.
	view.Release(held)
	if slot, ok := pool.TryAcquire(); !ok {
		t.Fatal("root pool unusable after view close")
	} else {
		pool.Release(slot)
	}
}

func TestCarveValidation(t *testing.T) {
	pool, err := NewStaging(nil, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Carve(0); err == nil {
		t.Fatal("carve(0) succeeded")
	}
	if _, err := pool.Carve(5); err == nil {
		t.Fatal("carve beyond pool size succeeded")
	}
	v, err := pool.Carve(1)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, err := v.Carve(1); err == nil {
		t.Fatal("re-carving a view succeeded")
	}
}

func TestRequestCheckpointDisabled(t *testing.T) {
	// An engine without checkpointing must return an already-closed
	// channel so drain never blocks on it.
	e := &Engine{}
	select {
	case <-e.RequestCheckpoint():
	case <-time.After(time.Second):
		t.Fatal("RequestCheckpoint without a saver did not close immediately")
	}
}

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
			if _, err := e.RunEpochCtx(context.Background(), 0); err != nil {
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
	if _, err := e.RunEpochCtx(context.Background(), 0); err != nil {
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
