package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// stagingModel is the reference the extent allocator is checked against:
// which units are held, and the extents the pool has handed out.
type stagingModel struct {
	held []bool
	live []Extent
}

// hasRun reports whether n contiguous units are free.
func (m *stagingModel) hasRun(n int) bool {
	run := 0
	for _, h := range m.held {
		if h {
			run = 0
		} else if run++; run >= n {
			return true
		}
	}
	return false
}

// take marks e held, failing the test if any of its units already is or
// it leaves the pool.
func (m *stagingModel) take(t *testing.T, e Extent) {
	t.Helper()
	if e.Start < 0 || int(e.Start+e.N) > len(m.held) {
		t.Fatalf("extent [%d,+%d) outside the %d-unit pool", e.Start, e.N, len(m.held))
	}
	for u := e.Start; u < e.Start+e.N; u++ {
		if m.held[u] {
			t.Fatalf("extent [%d,+%d) overlaps a live extent at unit %d", e.Start, e.N, u)
		}
		m.held[u] = true
	}
	m.live = append(m.live, e)
}

// give releases live extent e on both the pool and the model.
func (m *stagingModel) give(s *Staging, e Extent) {
	s.ReleaseExtent(e)
	for u := e.Start; u < e.Start+e.N; u++ {
		m.held[u] = false
	}
	m.live = slices.DeleteFunc(m.live, func(l Extent) bool { return l == e })
}

func (m *stagingModel) freeUnits() int {
	n := 0
	for _, h := range m.held {
		if !h {
			n++
		}
	}
	return n
}

// TestStagingMatchesModel runs seeded random sequences of acquire-n and
// release against a reference model of the pool. An acquire must
// succeed exactly when the model has a free run of n units; no two live
// extents overlap; the pool's free and in-flight counts match the
// model's; and at quiescence every unit is free again. Each sequence
// also parks a blocked acquire and checks that later acquires overtake
// it at most maxOvertakes times, then leave its reserved window alone
// until it completes.
func TestStagingMatchesModel(t *testing.T) {
	reservations := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + rng.Intn(200)
		unitBytes := 512 * (1 + rng.Intn(4))
		root, err := NewStaging(nil, units, unitBytes)
		if err != nil {
			t.Fatal(err)
		}
		m := &stagingModel{held: make([]bool, units)}
		maxN := 1 + rng.Intn(min(units, 40))

		for step := 0; step < 400; step++ {
			if rng.Intn(8) < 5 { // acquire
				n := 1 + rng.Intn(maxN)
				want := m.hasRun(n)
				e, ok := root.TryAcquireExtent(n)
				if ok != want {
					t.Fatalf("seed %d step %d: TryAcquireExtent(%d) = %v, model says %v (free %d)",
						seed, step, n, ok, want, m.freeUnits())
				}
				if ok {
					if int(e.N) != n {
						t.Fatalf("seed %d: asked %d units, got %d", seed, n, e.N)
					}
					m.take(t, e)
					buf := root.ExtentBuf(e)
					if len(buf) != n*unitBytes {
						t.Fatalf("seed %d: extent buffer %d bytes, want %d", seed, len(buf), n*unitBytes)
					}
				}
			} else if len(m.live) > 0 { // release
				m.give(root, m.live[rng.Intn(len(m.live))])
			}
			if got, want := root.InFlight(), units-m.freeUnits(); got != want {
				t.Fatalf("seed %d step %d: InFlight %d, model holds %d", seed, step, got, want)
			}
			if got := root.FreeSlots(); got != m.freeUnits() {
				t.Fatalf("seed %d step %d: FreeSlots %d, model %d", seed, step, got, m.freeUnits())
			}
		}

		if checkParkedFIFO(t, seed, root, m) {
			reservations++
		}

		for len(m.live) > 0 {
			m.give(root, m.live[0])
		}
		if root.FreeSlots() != units || root.InFlight() != 0 {
			t.Fatalf("seed %d: %d of %d units free at quiescence", seed, root.FreeSlots(), units)
		}
		if e, ok := root.TryAcquireExtent(units); !ok || e.Start != 0 {
			t.Fatalf("seed %d: the whole quiescent pool is not one free run", seed)
		} else {
			root.ReleaseExtent(e)
		}
		root.Close()
	}
	if reservations == 0 {
		t.Fatal("no sequence had the free units to reach a reservation")
	}
}

// checkParkedFIFO parks an acquire bigger than any free run and checks
// bounded overtaking: up to maxOvertakes later acquires may take units
// ahead of it; then it reserves an n-unit window, no later acquire takes
// units inside it, and releasing only the extents that overlap the
// window lets it complete. It reports whether the pool had the free
// units to reach the reservation.
func checkParkedFIFO(t *testing.T, seed int64, root *Staging, m *stagingModel) bool {
	t.Helper()
	units := len(m.held)
	n := 1
	for n <= units && m.hasRun(n) {
		n++
	}
	if n > units {
		return false // the whole pool is one free run: nothing can park
	}
	type result struct {
		e   Extent
		err error
	}
	done := make(chan result, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		e, err := root.AcquireExtentCtx(ctx, n)
		done <- result{e, err}
	}()
	waitQueued(t, root, 1)
	take := func() (Extent, bool) {
		e, ok := root.TryAcquireExtent(1)
		if ok {
			m.take(t, e)
		}
		return e, ok
	}
	overtakes := 0
	for overtakes < maxOvertakes {
		if _, ok := take(); !ok {
			break
		}
		overtakes++
	}
	overlaps := func(Extent) bool { return true }
	reserved := overtakes == maxOvertakes
	if reserved {
		// The waiter reserves at its next wake-up.
		root.Interrupt()
		resv := waitReserved(t, root)
		root.mu.Lock()
		id := root.queue[0]
		root.mu.Unlock()
		if resv.id != id || resv.n != n || resv.start < 0 || resv.start+n > units {
			t.Fatalf("seed %d: parked %d-unit acquire %d holds reservation %+v", seed, n, id, resv)
		}
		overlaps = func(e Extent) bool {
			return int(e.Start) < resv.start+resv.n && resv.start < int(e.Start+e.N)
		}
		for k := 0; k < 8; k++ {
			e, ok := take()
			if !ok {
				break
			}
			if overlaps(e) {
				t.Fatalf("seed %d: extent [%d,+%d) taken inside reserved window %+v", seed, e.Start, e.N, resv)
			}
		}
	}
	for _, e := range slices.Clone(m.live) {
		if overlaps(e) {
			m.give(root, e)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("seed %d: parked acquire of %d units: %v", seed, n, r.err)
	}
	m.take(t, r.e)
	root.mu.Lock()
	left := root.resv
	root.mu.Unlock()
	if left.n != 0 {
		t.Fatalf("seed %d: reservation %+v outlived its waiter", seed, left)
	}
	return reserved
}

// waitReserved waits until the first waiter holds a reserved window.
func waitReserved(t *testing.T, root *Staging) reservation {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		root.mu.Lock()
		resv := root.resv
		root.mu.Unlock()
		if resv.n > 0 {
			return resv
		}
		if time.Now().After(deadline) {
			t.Fatalf("no window reserved after 5s: %+v", resv)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued waits until n acquires are parked on the pool's queue.
func waitQueued(t *testing.T, root *Staging, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		root.mu.Lock()
		q := len(root.queue)
		root.mu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d acquires parked after 5s", q, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStagingConcurrentExtents has several goroutines acquire and release
// random extents at once, each stamping the units it holds: a stamp
// found overwritten means two live extents overlapped. Every unit is
// free once they are done.
func TestStagingConcurrentExtents(t *testing.T) {
	root, err := NewStaging(nil, 96, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var owner [96]int32
	var mu sync.Mutex // guards owner: the check, not the allocator
	var wg sync.WaitGroup
	for g := 1; g <= 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				n := 1 + rng.Intn(16)
				e, err := root.AcquireExtentCtx(context.Background(), n)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for u := e.Start; u < e.Start+e.N; u++ {
					if owner[u] != 0 {
						t.Errorf("unit %d held by %d and %d", u, owner[u], g)
					}
					owner[u] = int32(g)
				}
				mu.Unlock()
				// The stamps stay up across an unlocked window, where
				// an overlapping extent would find them.
				mu.Lock()
				for u := e.Start; u < e.Start+e.N; u++ {
					owner[u] = 0
				}
				mu.Unlock()
				root.ReleaseExtent(e)
			}
		}(g)
	}
	wg.Wait()
	if root.FreeSlots() != 96 {
		t.Fatalf("%d of 96 units free at quiescence", root.FreeSlots())
	}
}

// TestStagingExtentTooLarge: an extent larger than the pool is an error
// at once, never a wait.
func TestStagingExtentTooLarge(t *testing.T) {
	root, err := NewStaging(nil, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	if _, err := root.AcquireExtentCtx(context.Background(), 5); err == nil {
		t.Fatal("5-unit extent of a 4-unit pool")
	}
}

// TestStagingCloseWakesWaiters: Close fails a blocked acquire at once,
// and an extent still held when the pool closed releases cleanly.
func TestStagingCloseWakesWaiters(t *testing.T) {
	pool, err := NewStaging(nil, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	held, _ := pool.TryAcquire()
	done := make(chan error, 1)
	go func() {
		_, err := pool.AcquireCtx(context.Background())
		done <- err
	}()
	waitQueued(t, pool, 1)
	pool.Close()
	if err := <-done; err == nil {
		t.Fatal("acquire on a closed pool succeeded")
	}
	pool.Release(held)
	if pool.InFlight() != 0 {
		t.Fatalf("%d units in flight after the last release", pool.InFlight())
	}
}

// TestCarveValidation: Carve rejects a limit below one unit or above
// the pool it is carved from.
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
}
