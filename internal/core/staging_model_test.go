package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stagingModel is the reference the extent allocator is checked against:
// which units are held, and each handle's quota and holdings.
type stagingModel struct {
	held []bool
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
}

func (m *stagingModel) give(e Extent) {
	for u := e.Start; u < e.Start+e.N; u++ {
		m.held[u] = false
	}
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

// modelHandle is the root pool or one carved view, with the extents it
// holds and, for a view, its quota in units.
type modelHandle struct {
	s      *Staging
	limit  int // 0 on the root
	closed bool
	live   []Extent
}

func (h *modelHandle) used() int {
	n := 0
	for _, e := range h.live {
		n += int(e.N)
	}
	return n
}

// TestStagingMatchesModel runs seeded random sequences of acquire-n,
// release, carve and close against a reference model of the pool. An
// acquire must succeed exactly when the model has a free run of n units
// within the handle's quota; no two live extents overlap; every handle's
// holdings stay within its quota in units; and at quiescence every unit
// is free again. Each sequence also parks a blocked acquire and checks
// that later acquires overtake it at most maxOvertakes times, then leave
// its reserved window alone until it completes.
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
		handles := []*modelHandle{{s: root}}
		maxN := 1 + rng.Intn(min(units, 40))

		for step := 0; step < 400; step++ {
			h := handles[rng.Intn(len(handles))]
			switch op := rng.Intn(10); {
			case op < 5: // acquire
				n := 1 + rng.Intn(maxN)
				want := !h.closed && m.hasRun(n) && (h.limit == 0 || h.used()+n <= h.limit)
				e, ok := h.s.TryAcquireExtent(n)
				if ok != want {
					t.Fatalf("seed %d step %d: TryAcquireExtent(%d) = %v, model says %v (free %d, used %d, limit %d)",
						seed, step, n, ok, want, m.freeUnits(), h.used(), h.limit)
				}
				if ok {
					if int(e.N) != n {
						t.Fatalf("seed %d: asked %d units, got %d", seed, n, e.N)
					}
					m.take(t, e)
					h.live = append(h.live, e)
					buf := h.s.ExtentBuf(e)
					if len(buf) != n*unitBytes {
						t.Fatalf("seed %d: extent buffer %d bytes, want %d", seed, len(buf), n*unitBytes)
					}
				}
			case op < 8: // release
				if len(h.live) == 0 {
					continue
				}
				i := rng.Intn(len(h.live))
				e := h.live[i]
				h.live = append(h.live[:i], h.live[i+1:]...)
				h.s.ReleaseExtent(e)
				m.give(e)
			case op == 8: // carve
				if len(handles) < 5 {
					v, err := root.Carve(1 + rng.Intn(units))
					if err != nil {
						t.Fatal(err)
					}
					handles = append(handles, &modelHandle{s: v, limit: v.Slots()})
				}
			default: // close a view
				if h.limit > 0 && !h.closed {
					h.s.Close()
					h.closed = true
				}
			}
			for _, h := range handles {
				if got := h.s.InFlight(); got != h.used() {
					t.Fatalf("seed %d step %d: InFlight %d, model holds %d", seed, step, got, h.used())
				}
				if h.limit > 0 && h.used() > h.limit {
					t.Fatalf("seed %d: view holds %d units over its quota of %d", seed, h.used(), h.limit)
				}
			}
			if got := root.FreeSlots(); got != m.freeUnits() {
				t.Fatalf("seed %d step %d: FreeSlots %d, model %d", seed, step, got, m.freeUnits())
			}
		}

		if checkParkedFIFO(t, seed, root, m, handles) {
			reservations++
		}

		for _, h := range handles {
			for _, e := range h.live {
				h.s.ReleaseExtent(e)
				m.give(e)
			}
			h.live = nil
		}
		if root.FreeSlots() != units || root.InFlight() != 0 {
			t.Fatalf("seed %d: %d of %d units free at quiescence", seed, root.FreeSlots(), units)
		}
		if e, ok := root.TryAcquireExtent(units); !ok || e.Start != 0 {
			t.Fatalf("seed %d: the whole quiescent pool is not one free run", seed)
		} else {
			root.ReleaseExtent(e)
		}
		for _, h := range handles[1:] {
			h.s.Close()
		}
		root.Close()
	}
	if reservations == 0 {
		t.Fatal("no sequence had the free units to reach a reservation")
	}
}

// checkParkedFIFO parks a root acquire bigger than any free run and
// checks bounded overtaking: up to maxOvertakes later acquires may take
// units ahead of it; then it reserves an n-unit window, no later acquire
// takes units inside it, and releasing only the extents that overlap the
// window lets it complete. It reports whether the pool had the free
// units to reach the reservation.
func checkParkedFIFO(t *testing.T, seed int64, root *Staging, m *stagingModel, handles []*modelHandle) bool {
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
			handles[0].live = append(handles[0].live, e)
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
		id := root.queue[0].id
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
	for _, h := range handles {
		keep := h.live[:0]
		for _, e := range h.live {
			if overlaps(e) {
				h.s.ReleaseExtent(e)
				m.give(e)
			} else {
				keep = append(keep, e)
			}
		}
		h.live = keep
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("seed %d: parked acquire of %d units: %v", seed, n, r.err)
	}
	m.take(t, r.e)
	handles[0].live = append(handles[0].live, r.e)
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

// waitQueued waits until n acquires are parked on the root's queue.
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

// TestStagingParkedViewQuotaDoesNotBlockOthers: a view's acquire that
// waits on its own quota is not first in line, so the pool keeps serving
// the other tenants.
func TestStagingParkedViewQuotaDoesNotBlockOthers(t *testing.T) {
	root, err := NewStaging(nil, 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	a, _ := root.Carve(2)
	b, _ := root.Carve(4)
	defer a.Close()
	defer b.Close()
	held, ok := a.TryAcquireExtent(2)
	if !ok {
		t.Fatal("view a could not take its quota")
	}
	done := make(chan error, 1)
	go func() {
		e, err := a.AcquireExtentCtx(context.Background(), 1)
		if err == nil {
			a.ReleaseExtent(e)
		}
		done <- err
	}()
	waitQueued(t, root, 1)
	e, ok := b.TryAcquireExtent(3)
	if !ok {
		t.Fatal("a quota-bound waiter on view a blocked view b")
	}
	b.ReleaseExtent(e)
	a.ReleaseExtent(held)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStagingConcurrentExtents has several goroutines acquire and release
// random extents through the root and two views at once, each stamping
// the units it holds: a stamp found overwritten means two live extents
// overlapped. Every unit is free once they are done.
func TestStagingConcurrentExtents(t *testing.T) {
	root, err := NewStaging(nil, 96, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	v1, _ := root.Carve(40)
	v2, _ := root.Carve(64)
	defer v1.Close()
	defer v2.Close()
	handles := []*Staging{root, v1, v2}
	var owner [96]int32
	var mu sync.Mutex // guards owner: the check, not the allocator
	var wg sync.WaitGroup
	for g := 1; g <= 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			s := handles[g%len(handles)]
			for i := 0; i < 300; i++ {
				n := 1 + rng.Intn(16)
				e, err := s.AcquireExtentCtx(context.Background(), n)
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
				if s != root && s.InFlight() > s.Slots() {
					t.Errorf("view holds %d units over its quota of %d", s.InFlight(), s.Slots())
				}
				mu.Lock()
				for u := e.Start; u < e.Start+e.N; u++ {
					owner[u] = 0
				}
				mu.Unlock()
				s.ReleaseExtent(e)
			}
		}(g)
	}
	wg.Wait()
	if root.FreeSlots() != 96 {
		t.Fatalf("%d of 96 units free at quiescence", root.FreeSlots())
	}
}

// TestStagingExtentTooLarge: an extent larger than the pool or the
// view's quota is an error at once, never a wait.
func TestStagingExtentTooLarge(t *testing.T) {
	root, err := NewStaging(nil, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	v, _ := root.Carve(2)
	defer v.Close()
	if _, err := root.AcquireExtentCtx(context.Background(), 5); err == nil {
		t.Fatal("5-unit extent of a 4-unit pool")
	}
	if _, err := v.AcquireExtentCtx(context.Background(), 3); err == nil {
		t.Fatal("3-unit extent of a 2-unit quota")
	}
}
