package marius

import (
	"errors"
	"testing"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage/sim"
)

func newRig(t *testing.T, budgetBytes int64) (*graph.Dataset, *device.Device, *hostmem.Budget, *metrics.Recorder) {
	t.Helper()
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.InstantConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Dev.Close() })
	gpu := device.New(device.InstantConfig())
	t.Cleanup(func() { gpu.Close() })
	return ds, gpu, hostmem.NewBudget(budgetBytes), metrics.NewRecorder()
}

func testOpts() Options {
	o := DefaultOptions(nn.GraphSAGE)
	o.BatchSize = 40
	o.Fanouts = []int{4, 4}
	o.Partitions = 8
	return o
}

func TestTrainEpochRunsWithPrep(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 64<<20)
	s, err := New(ds, gpu, budget, rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.TrainEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prep <= 0 {
		t.Fatal("data preparation not recorded")
	}
	if res.Batches == 0 {
		t.Fatal("no batches trained")
	}
	// With a generous budget every partition is resident: no swaps.
	if s.BufferPartitions() == testOpts().Partitions && res.Swaps != 0 {
		t.Fatalf("unexpected swaps %d with full buffer", res.Swaps)
	}
}

func TestPartitionSwapsWhenBufferSmall(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 64<<20)
	opts := testOpts()
	opts.BufferPartitions = 2
	s, err := New(ds, gpu, budget, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.TrainEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Fatal("expected partition swaps with a 2-partition buffer")
	}
	if res.Batches == 0 {
		t.Fatal("no batches trained")
	}
}

func TestOOMWhenBudgetTooSmall(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 96<<10)
	_, err := New(ds, gpu, budget, rec, testOpts())
	if !errors.Is(err, hostmem.ErrOOM) {
		t.Fatalf("want OOM, got %v", err)
	}
	if budget.Pinned() != 0 {
		t.Fatalf("pins leaked: %d", budget.Pinned())
	}
}

func TestResidentReaderFiltersNeighbors(t *testing.T) {
	ds, _, _, _ := newRig(t, 64<<20)
	inBuf := func(v int64) bool { return v < ds.NumNodes/2 }
	r := &residentReader{ds: ds, inBuf: inBuf}
	raw := graph.NewRawReader(ds)
	for v := int64(0); v < 50; v++ {
		got, _, err := r.Neighbors(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		all, _, _ := raw.Neighbors(v, nil)
		wantCount := 0
		for _, u := range all {
			if inBuf(int64(u)) {
				wantCount++
			}
		}
		if len(got) != wantCount {
			t.Fatalf("node %d: got %d filtered neighbors, want %d", v, len(got), wantCount)
		}
		for _, u := range got {
			if !inBuf(int64(u)) {
				t.Fatalf("node %d: non-resident neighbor %d returned", v, u)
			}
		}
	}
}

func TestRealTrainingLearns(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 64<<20)
	opts := testOpts()
	opts.RealTrain = true
	opts.Hidden = 32
	opts.LR = 0.01
	s, err := New(ds, gpu, budget, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var first, last float64
	for e := 0; e < 3; e++ {
		res, err := s.TrainEpoch(e)
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 {
			first = res.Loss
		}
		last = res.Loss
	}
	if last >= first {
		t.Fatalf("loss %v -> %v did not improve", first, last)
	}
}

func TestCloseUnpins(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 64<<20)
	s, err := New(ds, gpu, budget, rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if budget.Pinned() != 0 {
		t.Fatalf("pinned %d", budget.Pinned())
	}
}
