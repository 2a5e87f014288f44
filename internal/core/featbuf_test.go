package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"gnndrive/internal/storage/storagetest"
)

func TestReserveAllocatesFreshSlots(t *testing.T) {
	fb := NewFeatureBuffer(100, 4, 8)
	res, err := fb.ReserveCtx(context.Background(), []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ToLoad) != 3 || len(res.Wait) != 0 {
		t.Fatalf("res %+v", res)
	}
	seen := map[int32]bool{}
	for _, a := range res.Alias {
		if a < 0 || int(a) >= 8 || seen[a] {
			t.Fatalf("bad alias %v", res.Alias)
		}
		seen[a] = true
	}
	if fb.StandbyLen() != 5 {
		t.Fatalf("standby %d want 5", fb.StandbyLen())
	}
	for _, n := range []int64{1, 2, 3} {
		if fb.RefCount(n) != 1 || fb.Valid(n) {
			t.Fatalf("node %d state wrong", n)
		}
	}
}

func TestMarkValidAndReuse(t *testing.T) {
	fb := NewFeatureBuffer(100, 4, 8)
	res1, _ := fb.ReserveCtx(context.Background(), []int64{7})
	fb.MarkValid(7)
	fb.Release([]int64{7}) // retires to standby, still valid
	if !fb.Valid(7) || fb.RefCount(7) != 0 {
		t.Fatal("retired node must stay valid with ref 0")
	}
	res2, err := fb.ReserveCtx(context.Background(), []int64{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.ToLoad) != 0 || len(res2.Wait) != 0 {
		t.Fatalf("expected pure reuse, got %+v", res2)
	}
	if res2.Alias[0] != res1.Alias[0] {
		t.Fatal("reuse must alias the same slot")
	}
	if fb.Stats().ReuseHits != 1 {
		t.Fatalf("stats %+v", fb.Stats())
	}
}

func TestSharedLoadGoesToWaitList(t *testing.T) {
	fb := NewFeatureBuffer(100, 4, 8)
	res1, _ := fb.ReserveCtx(context.Background(), []int64{9}) // extractor A is loading 9
	res2, err := fb.ReserveCtx(context.Background(), []int64{9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Wait) != 1 || res2.Wait[0] != 9 {
		t.Fatalf("expected node 9 on wait list, got %+v", res2)
	}
	if res2.Alias[0] != res1.Alias[0] {
		t.Fatal("shared node must alias the loader's slot")
	}
	if len(res2.ToLoad) != 1 || res2.ToLoad[0] != 1 {
		t.Fatalf("node 10 should be loaded by B: %+v", res2)
	}
	if fb.RefCount(9) != 2 {
		t.Fatalf("ref of shared node %d", fb.RefCount(9))
	}
	// WaitValid must block until A marks it valid.
	done := make(chan struct{})
	go func() {
		fb.WaitValidCtx(context.Background(), res2.Wait)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitValid returned before MarkValid")
	case <-time.After(5 * time.Millisecond):
	}
	fb.MarkValid(9)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitValid never woke up")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	fb := NewFeatureBuffer(100, 4, 2)
	// Load nodes 1,2; release 1 then 2: standby order [slot(1), slot(2)].
	res, _ := fb.ReserveCtx(context.Background(), []int64{1, 2})
	slot1, slot2 := res.Alias[0], res.Alias[1]
	fb.MarkValid(1)
	fb.MarkValid(2)
	fb.Release([]int64{1})
	fb.Release([]int64{2})
	// New node 3 must take slot(1) (least recently retired) and
	// invalidate node 1.
	res3, _ := fb.ReserveCtx(context.Background(), []int64{3})
	if res3.Alias[0] != slot1 {
		t.Fatalf("expected LRU slot %d, got %d", slot1, res3.Alias[0])
	}
	if fb.Valid(1) {
		t.Fatal("node 1 should be invalidated on slot reuse")
	}
	if !fb.Valid(2) {
		t.Fatal("node 2 must remain valid")
	}
	_ = slot2
}

func TestTouchingRetiredNodeProtectsIt(t *testing.T) {
	fb := NewFeatureBuffer(100, 4, 2)
	res, _ := fb.ReserveCtx(context.Background(), []int64{1, 2})
	fb.MarkValid(1)
	fb.MarkValid(2)
	fb.Release([]int64{1, 2}) // standby: [slot1, slot2]
	// Re-reserve 1: pulls its slot off standby.
	if _, err := fb.ReserveCtx(context.Background(), []int64{1}); err != nil {
		t.Fatal(err)
	}
	// New node 3 must now take node 2's slot, not node 1's.
	res3, _ := fb.ReserveCtx(context.Background(), []int64{3})
	if res3.Alias[0] != res.Alias[1] {
		t.Fatalf("node 3 got slot %d, want node 2's slot %d", res3.Alias[0], res.Alias[1])
	}
	if !fb.Valid(1) {
		t.Fatal("protected node 1 was invalidated")
	}
}

func TestReserveBlocksUntilRelease(t *testing.T) {
	fb := NewFeatureBuffer(100, 4, 2)
	if _, err := fb.ReserveCtx(context.Background(), []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := fb.ReserveCtx(context.Background(), []int64{3})
		got <- err
	}()
	select {
	case <-got:
		t.Fatal("Reserve should block with no standby slots")
	case <-time.After(5 * time.Millisecond):
	}
	fb.MarkValid(1)
	fb.MarkValid(2)
	fb.Release([]int64{1, 2})
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Reserve never unblocked")
	}
}

func TestReserveBatchLargerThanBufferFails(t *testing.T) {
	fb := NewFeatureBuffer(100, 4, 2)
	if _, err := fb.ReserveCtx(context.Background(), []int64{1, 2, 3}); !errors.Is(err, ErrBufferTooSmall) {
		t.Fatalf("want ErrBufferTooSmall, got %v", err)
	}
}

func TestReleaseUnreferencedPanics(t *testing.T) {
	fb := NewFeatureBuffer(10, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fb.Release([]int64{5})
}

func TestSlotDataDisjoint(t *testing.T) {
	fb := NewFeatureBuffer(10, 4, 3)
	a := fb.SlotData(0)
	b := fb.SlotData(1)
	for i := range a {
		a[i] = 1
	}
	for _, v := range b {
		if v != 0 {
			t.Fatal("slot rows overlap")
		}
	}
	if len(a) != 4 {
		t.Fatalf("slot len %d", len(a))
	}
}

// Concurrent extractor/releaser stress: invariants must hold and all
// reservations eventually succeed.
func TestFeatureBufferConcurrentStress(t *testing.T) {
	const (
		numNodes = 200
		slots    = 64
		workers  = 8
		rounds   = 60
		batch    = 7
	)
	fb := NewFeatureBuffer(numNodes, 2, slots)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w*2654435761 + 12345)
			for r := 0; r < rounds; r++ {
				nodes := make([]int64, 0, batch)
				seen := map[int64]bool{}
				for len(nodes) < batch {
					rng = rng*6364136223846793005 + 1442695040888963407
					v := int64(rng % numNodes)
					if !seen[v] {
						seen[v] = true
						nodes = append(nodes, v)
					}
				}
				res, err := fb.ReserveCtx(context.Background(), nodes)
				if err != nil {
					errCh <- err
					return
				}
				for _, pos := range res.ToLoad {
					fb.MarkValid(nodes[pos])
				}
				fb.WaitValidCtx(context.Background(), res.Wait)
				// Every aliased slot must map back to the right node
				// while we hold references.
				for i, n := range nodes {
					if !fb.Valid(n) {
						errCh <- errors.New("referenced node not valid")
						return
					}
					_ = fb.SlotData(res.Alias[i])
				}
				fb.Release(nodes)
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// After all releases every slot must be back on standby.
	if fb.StandbyLen() != slots {
		t.Fatalf("standby %d want %d", fb.StandbyLen(), slots)
	}
	for n := int64(0); n < numNodes; n++ {
		if fb.RefCount(n) != 0 {
			t.Fatalf("node %d leaked ref %d", n, fb.RefCount(n))
		}
	}
}

func TestStandbyListOps(t *testing.T) {
	var l standbyList
	l.init(4)
	l.pushTail(0)
	l.pushTail(1)
	l.pushTail(2)
	if l.length != 3 {
		t.Fatalf("len %d", l.length)
	}
	l.remove(1)
	if got := l.popHead(); got != 0 {
		t.Fatalf("popHead %d", got)
	}
	if got := l.popHead(); got != 2 {
		t.Fatalf("popHead %d", got)
	}
	if !l.empty() {
		t.Fatal("should be empty")
	}
}

func TestStandbyDoublePushPanics(t *testing.T) {
	var l standbyList
	l.init(2)
	l.pushTail(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.pushTail(0)
}

// fbModel is §4.1's feature buffer written as plainly as possible, the
// oracle TestFeatureBufferMatchesModel holds the real buffer to: a map
// from every mapped node to its mapping-table row, the slot→node reverse
// array, and the LRU standby list as a slice, least recently retired
// first. It is sequential and never blocks; wouldBlock names the reserves
// the real buffer would park on.
type fbModel struct {
	rows    map[int64]*modelRow
	reverse []int64
	standby []int32
	stats   FeatureBufferStats
}

type modelRow struct {
	slot, ref int32
	valid     bool
}

func newFBModel(slots int) *fbModel {
	m := &fbModel{rows: map[int64]*modelRow{}, reverse: make([]int64, slots)}
	for s := range m.reverse {
		m.reverse[s] = -1
		m.standby = append(m.standby, int32(s))
	}
	return m
}

// wouldBlock reports whether the standby list cannot cover the batch: one
// slot per miss, plus the slot of every retired hit, which leaves the
// list when the hit is pinned.
func (m *fbModel) wouldBlock(nodes []int64) bool {
	need := 0
	for _, n := range nodes {
		if r, ok := m.rows[n]; !ok || r.ref == 0 {
			need++
		}
	}
	return need > len(m.standby)
}

// reserve pins every mapped node first — a retired one leaves the standby
// list — and only then gives each miss the least recently retired slot,
// unmapping the node that slot held (deferred invalidation).
func (m *fbModel) reserve(nodes []int64) (alias, toLoad []int32, wait []int64) {
	alias = make([]int32, len(nodes))
	var misses []int
	for i, n := range nodes {
		r, ok := m.rows[n]
		if !ok {
			misses = append(misses, i)
			continue
		}
		alias[i] = r.slot
		switch {
		case r.ref == 0:
			at := slices.Index(m.standby, r.slot)
			m.standby = slices.Delete(m.standby, at, at+1)
			m.stats.ReuseHits++
		case r.valid:
			m.stats.ReuseHits++
		default:
			wait = append(wait, n)
			m.stats.SharedWaits++
		}
		r.ref++
	}
	for _, i := range misses {
		s := m.standby[0]
		m.standby = m.standby[1:]
		if old := m.reverse[s]; old >= 0 {
			delete(m.rows, old)
			m.stats.SlotRecycles++
		}
		m.rows[nodes[i]] = &modelRow{slot: s, ref: 1}
		m.reverse[s] = nodes[i]
		alias[i] = s
		toLoad = append(toLoad, int32(i))
		m.stats.Loads++
	}
	return alias, toLoad, wait
}

// release drops one reference per node. A valid node reaching zero
// retires to the standby tail, in release order; an invalid one (its load
// was abandoned) is unmapped, and its empty slot queues behind the
// batch's retired ones.
func (m *fbModel) release(nodes []int64) {
	var aborted []int64
	for _, n := range nodes {
		r := m.rows[n]
		r.ref--
		switch {
		case r.ref > 0:
		case r.valid:
			m.standby = append(m.standby, r.slot)
		default:
			aborted = append(aborted, n)
		}
	}
	for _, n := range aborted {
		s := m.rows[n].slot
		delete(m.rows, n)
		m.reverse[s] = -1
		m.standby = append(m.standby, s)
	}
}

// TestFeatureBufferMatchesModel drives the buffer and fbModel through the
// same seeded random sequential schedules — reserves (some larger than
// the buffer), MarkValid of a subset of a reservation's loads, releases
// that abandon the loads still pending — and after every step compares
// everything the buffer exposes: the reservation's Alias/ToLoad/Wait,
// every node's RefCount and Valid, TotalRefs, StandbyLen and Stats.
func TestFeatureBufferMatchesModel(t *testing.T) {
	const (
		numNodes = 40
		slots    = 12
		steps    = 400
	)
	ctx := context.Background()
	type held struct {
		res     *Reservation
		nodes   []int64
		pending []int64 // loads not yet marked valid
	}
	var total FeatureBufferStats
	aborts := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fb := NewFeatureBuffer(numNodes, 1, slots)
		m := newFBModel(slots)
		var live []*held
		for step := 0; step < steps; step++ {
			switch k := rng.Intn(10); {
			case k < 4 && len(live) < 4:
				nodes := make([]int64, 1+rng.Intn(slots+2))
				for i, v := range rng.Perm(numNodes)[:len(nodes)] {
					nodes[i] = int64(v)
				}
				if len(nodes) > slots {
					if _, err := fb.ReserveCtx(ctx, nodes); !errors.Is(err, ErrBufferTooSmall) {
						t.Fatalf("seed %d step %d: %d-node batch: want ErrBufferTooSmall, got %v", seed, step, len(nodes), err)
					}
					continue
				}
				if m.wouldBlock(nodes) {
					continue
				}
				res, err := fb.ReserveCtx(ctx, nodes)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				alias, toLoad, wait := m.reserve(nodes)
				if !slices.Equal(res.Alias, alias) || !slices.Equal(res.ToLoad, toLoad) || !slices.Equal(res.Wait, wait) {
					t.Fatalf("seed %d step %d: reserve %v\ngot  alias %v load %v wait %v\nwant alias %v load %v wait %v",
						seed, step, nodes, res.Alias, res.ToLoad, res.Wait, alias, toLoad, wait)
				}
				h := &held{res: res, nodes: nodes}
				for _, pos := range toLoad {
					h.pending = append(h.pending, nodes[pos])
				}
				live = append(live, h)
			case k < 7 && len(live) > 0:
				h := live[rng.Intn(len(live))]
				keep := h.pending[:0]
				for _, n := range h.pending {
					if rng.Intn(3) == 0 {
						keep = append(keep, n)
						continue
					}
					fb.MarkValid(n)
					m.rows[n].valid = true
				}
				h.pending = keep
			case len(live) > 0:
				i := rng.Intn(len(live))
				h := live[i]
				live = slices.Delete(live, i, i+1)
				if len(h.pending) > 0 {
					aborts++
				}
				fb.Release(h.nodes)
				m.release(h.nodes)
				PutReservation(h.res)
			}
			var refs int64
			for n := int64(0); n < numNodes; n++ {
				var want modelRow
				if r := m.rows[n]; r != nil {
					want = *r
				}
				refs += int64(want.ref)
				if fb.RefCount(n) != want.ref || fb.Valid(n) != want.valid {
					t.Fatalf("seed %d step %d: node %d ref %d valid %v, model ref %d valid %v",
						seed, step, n, fb.RefCount(n), fb.Valid(n), want.ref, want.valid)
				}
			}
			if fb.TotalRefs() != refs || fb.StandbyLen() != len(m.standby) || fb.Stats() != m.stats {
				t.Fatalf("seed %d step %d: refs %d standby %d stats %+v, model refs %d standby %d stats %+v",
					seed, step, fb.TotalRefs(), fb.StandbyLen(), fb.Stats(), refs, len(m.standby), m.stats)
			}
		}
		total.ReuseHits += m.stats.ReuseHits
		total.SharedWaits += m.stats.SharedWaits
		total.SlotRecycles += m.stats.SlotRecycles
	}
	if total.ReuseHits == 0 || total.SharedWaits == 0 || total.SlotRecycles == 0 || aborts == 0 {
		t.Fatalf("schedules missed a transition: %+v, %d aborted releases", total, aborts)
	}
}

// TestFeatureBufferZeroAlloc pins the steady-state batch cycle — a
// reserve with hits, misses and evictions, MarkValid of its loads,
// WaitValidCtx on valid nodes, Release and PutReservation — at zero
// allocations.
func TestFeatureBufferZeroAlloc(t *testing.T) {
	if storagetest.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		window = 96 // nodes the batches cycle over: twice the buffer
		batch  = 24
		stride = 16 // consecutive batches share batch-stride nodes
	)
	fb := NewFeatureBuffer(256, 4, window/2)
	ctx := context.Background()
	nodes := make([]int64, batch)
	turn := 0
	cycle := func() {
		for i := range nodes {
			nodes[i] = int64((turn*stride + i) % window)
		}
		turn++
		res, err := fb.ReserveCtx(ctx, nodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range res.ToLoad {
			fb.MarkValid(nodes[pos])
		}
		if err := fb.WaitValidCtx(ctx, nodes); err != nil {
			t.Fatal(err)
		}
		fb.Release(nodes)
		PutReservation(res)
	}
	for i := 0; i < 2*window/stride; i++ { // fill the buffer, grow the pooled reservation
		cycle()
	}
	before := fb.Stats()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state batch cycle allocates %.1f times, want 0", allocs)
	}
	after := fb.Stats()
	if after.ReuseHits == before.ReuseHits || after.Loads == before.Loads || after.SlotRecycles == before.SlotRecycles {
		t.Fatalf("not the hits+misses+evictions case: %+v -> %+v", before, after)
	}
}
