package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
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
