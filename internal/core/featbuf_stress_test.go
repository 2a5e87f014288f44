package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestFeatureBufferParallelStress hammers a deliberately tight buffer
// with many extractor-shaped workers whose batches alias a hot node set,
// driving the mapping table through every transition at once: pins of
// the same entry by several batches, reuse of retired entries, eviction,
// and shared-load waits. After every epoch barrier the buffer must
// account for every slot and hold zero references.
func TestFeatureBufferParallelStress(t *testing.T) {
	const (
		numNodes = 1 << 14
		dim      = 4
		workers  = 16
		hot      = 8  // nodes every worker touches every round
		private  = 16 // per-worker rotating window nodes
		rounds   = 40
		epochs   = 4
	)
	// Liveness floor (§4.2): every worker must be able to hold a full
	// batch at once. Keep barely above it so eviction is constant.
	const slots = workers*(hot+private) + 8
	fb := NewFeatureBuffer(numNodes, dim, slots)

	for epoch := 0; epoch < epochs; epoch++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				nodes := make([]int64, 0, hot+private)
				for r := 0; r < rounds; r++ {
					nodes = nodes[:0]
					for i := 0; i < hot; i++ {
						nodes = append(nodes, int64(i))
					}
					base := int64(100 + w*997 + r*31)
					for i := 0; i < private; i++ {
						nodes = append(nodes, 8+(base+int64(i)*7)%(numNodes-8))
					}
					res, err := fb.ReserveCtx(context.Background(), nodes)
					if err != nil {
						t.Error(err)
						return
					}
					for _, pos := range res.ToLoad {
						fb.MarkValid(nodes[pos])
					}
					// Everyone sharing a node must observe it valid.
					fb.WaitValidCtx(context.Background(), res.Wait)
					for i, v := range nodes {
						if !fb.Valid(v) {
							t.Errorf("node %d invalid while pinned", v)
							return
						}
						if fb.RefCount(v) < 1 {
							t.Errorf("node %d refcount %d while pinned", v, fb.RefCount(v))
							return
						}
						_ = res.Alias[i]
					}
					fb.Release(nodes)
					PutReservation(res)
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		// Epoch barrier: all references dropped, every slot accounted for.
		if refs := fb.TotalRefs(); refs != 0 {
			t.Fatalf("epoch %d: %d references leaked", epoch, refs)
		}
		if got := fb.StandbyLen(); got != slots {
			t.Fatalf("epoch %d: standby %d want %d slots", epoch, got, slots)
		}
	}
	st := fb.Stats()
	if st.Loads == 0 || st.ReuseHits == 0 {
		t.Fatalf("stress exercised nothing: %+v", st)
	}
	if st.SlotRecycles == 0 {
		t.Fatalf("buffer too large to force eviction: %+v", st)
	}
}

// TestFeatureBufferRetireReassignRace interleaves retirement with
// reassignment: a release retires a slot while concurrent reserves pop,
// evict and reassign slots. A buffer barely above the liveness floor
// keeps every slot cycling through pop/evict/reassign, the shared hot
// set keeps protects and retires of the same nodes in flight against
// allocations, and every third round each worker abandons its private
// loads (release before MarkValid) so unmapping races reassignment too.
// Private windows are disjoint across workers, so aborts never strand a
// WaitValid. Run under -race; the epoch barrier asserts no slot is
// leaked or double-listed.
func TestFeatureBufferRetireReassignRace(t *testing.T) {
	const (
		numNodes = 256
		dim      = 2
		workers  = 8
		hot      = 2 // shared by every worker, always marked valid
		private  = 4 // drawn from a per-worker disjoint window
		window   = 24
		rounds   = 200
		epochs   = 3
	)
	const slots = workers*(hot+private) + 2
	fb := NewFeatureBuffer(numNodes, dim, slots)

	for epoch := 0; epoch < epochs; epoch++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				nodes := make([]int64, 0, hot+private)
				base := int64(8 + w*window)
				for r := 0; r < rounds; r++ {
					nodes = nodes[:0]
					for i := 0; i < hot; i++ {
						nodes = append(nodes, int64(i))
					}
					for i := 0; i < private; i++ {
						nodes = append(nodes, base+(int64(r)*5+int64(i)*3)%window)
					}
					res, err := fb.ReserveCtx(context.Background(), nodes)
					if err != nil {
						t.Error(err)
						return
					}
					abort := r%3 == 2
					for _, pos := range res.ToLoad {
						if abort && nodes[pos] >= hot {
							continue // abandon the private load
						}
						fb.MarkValid(nodes[pos])
					}
					fb.WaitValidCtx(context.Background(), res.Wait)
					fb.Release(nodes)
					PutReservation(res)
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if refs := fb.TotalRefs(); refs != 0 {
			t.Fatalf("epoch %d: %d references leaked", epoch, refs)
		}
		if got := fb.StandbyLen(); got != slots {
			t.Fatalf("epoch %d: standby %d want %d slots", epoch, got, slots)
		}
	}
	st := fb.Stats()
	if st.SlotRecycles == 0 {
		t.Fatalf("no evictions: the retire/reassign window was never open: %+v", st)
	}
}

// TestFeatureBufferSlotsEqualNodesLiveness is the engine's buffer on a
// graph smaller than Ne × Mb, where sizing caps the slots at the node
// count (the tiny dataset). Every node can then be mapped at once, so a
// reserve never has to wait for a release. Four workers reserve 40 of the
// 64 nodes each round and load their misses, while a releaser holds the
// two most recent batches back, as the train queue does. Every reserve
// and wait must finish within its own deadline.
func TestFeatureBufferSlotsEqualNodesLiveness(t *testing.T) {
	const (
		nodes   = 64
		workers = 4
		batch   = 40
		rounds  = 200
		lag     = 2 // batches the releaser holds back
	)
	fb := NewFeatureBuffer(nodes, 2, nodes)
	trained := make(chan []int64, workers)
	released := make(chan struct{})
	go func() {
		defer close(released)
		var held [][]int64
		for b := range trained {
			held = append(held, b)
			if len(held) > lag {
				fb.Release(held[0])
				held = held[1:]
			}
		}
		for _, b := range held {
			fb.Release(b)
		}
	}()
	extract := func(ctx context.Context, b []int64) error {
		stop := context.AfterFunc(ctx, fb.Interrupt)
		defer stop()
		res, err := fb.ReserveCtx(ctx, b)
		if err != nil {
			return err
		}
		for _, pos := range res.ToLoad {
			fb.MarkValid(b[pos])
		}
		if err := fb.WaitValidCtx(ctx, res.Wait); err != nil {
			fb.Release(b)
			return err
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				b := make([]int64, batch)
				for i, v := range rng.Perm(nodes)[:batch] {
					b[i] = int64(v)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := extract(ctx, b)
				cancel()
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				trained <- b
			}
		}(w)
	}
	wg.Wait()
	close(trained)
	<-released
	if refs := fb.TotalRefs(); refs != 0 {
		t.Fatalf("%d references leaked", refs)
	}
	if got := fb.StandbyLen(); got != nodes {
		t.Fatalf("standby %d want %d slots", got, nodes)
	}
}
