package ginex

import (
	"context"
	"testing"

	"gnndrive/internal/core"
	"gnndrive/internal/nn"
	"gnndrive/internal/sample"
)

// TestMultipleSuperbatchesPerEpoch exercises the superbatch boundary:
// reschedule() must re-key survivors so stale heap entries from the
// previous superbatch cannot wedge eviction.
func TestMultipleSuperbatchesPerEpoch(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	opts := testOpts(ds)
	// 600 training nodes in batches of 3 are 200 batches: a full
	// superbatch and a short one per epoch.
	opts.BatchSize = 3
	s, err := New(ds, gpu, budget, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for e := 0; e < 2; e++ {
		res, err := s.TrainEpoch(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if res.Batches <= superbatch {
			t.Fatalf("%d batches fit one superbatch of %d", res.Batches, superbatch)
		}
	}
}

// TestGinexMissesMonotoneInCacheSize: a smaller host budget, and with it
// a smaller feature cache, must not reduce the miss count (optimal caching
// is monotone in capacity). Both budgets leave a feature cache smaller
// than the nodes an epoch touches (212 KB and 196 KB of tiny's 250 KB
// table), so both runs miss.
func TestGinexMissesMonotoneInCacheSize(t *testing.T) {
	run := func(budgetBytes int64) int64 {
		ds, gpu, budget, rec := newRig(t, budgetBytes)
		s, err := New(ds, gpu, budget, rec, testOpts(ds))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.TrainEpoch(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.NodesExtracted // the feature-cache misses
	}
	big := run(312 << 10)
	small := run(testBudget)
	if big == 0 {
		t.Fatal("the larger cache never missed")
	}
	if small < big {
		t.Fatalf("smaller cache missed less: %d < %d", small, big)
	}
}

func TestScheduleOccurrences(t *testing.T) {
	mk := func(nodes ...int64) *sample.Batch { return &sample.Batch{Nodes: nodes} }
	sched := newSchedule([]*sample.Batch{mk(1, 2), mk(2), mk(1, 3)})
	if sched.nextUse(1, 0) != 0 || sched.nextUse(1, 1) != 2 || sched.nextUse(1, 3) != 1<<30 {
		t.Fatalf("nextUse(1): %d %d %d", sched.nextUse(1, 0), sched.nextUse(1, 1), sched.nextUse(1, 3))
	}
	if sched.nextUse(99, 0) != 1<<30 {
		t.Fatal("unknown node must never be used")
	}
	order := sched.firstUseOrder(2)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("firstUseOrder %v", order)
	}
}

func TestDefaultCacheSizes(t *testing.T) {
	n, f := DefaultCacheSizes(32 << 20)
	total := n + f
	if total <= (32<<20)*80/100 || total > (32<<20)*86/100 {
		t.Fatalf("caches use %d of %d", total, 32<<20)
	}
	if f/n < 3 || f/n > 5 {
		t.Fatalf("feature:neighbor ratio %d", f/n)
	}
}

func TestDefaultOptionsGATFanouts(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	s, err := New(ds, gpu, budget, rec, Options{Knobs: core.Knobs{Model: nn.GAT}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if o := s.opts; o.Fanouts[len(o.Fanouts)-1] >= o.Fanouts[0] {
		t.Fatal("GAT last-hop fanout should be reduced, as in the paper")
	}
}

// TestGinexReadAmplificationCountsBytesMoved: BytesRead is what Ginex's
// coalesced, sector-aligned reads moved, in the cache-initialization
// burst as well as on per-batch misses, so an epoch that read anything
// moved at least the bytes it needed.
func TestGinexReadAmplificationCountsBytesMoved(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, testBudget)
	s, err := New(ds, gpu, budget, rec, testOpts(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.TrainEpoch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BackendReads == 0 {
		t.Fatal("epoch issued no backend reads")
	}
	if amp := res.ReadAmplification(); amp < 1 {
		t.Fatalf("read amplification %.2f < 1: read %d bytes, needed %d", amp, res.BytesRead, res.BytesNeeded)
	}
}
