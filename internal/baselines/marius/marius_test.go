package marius

import (
	"context"
	"errors"
	"testing"

	"gnndrive/internal/core"
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
	ds, err := gen.BuildWith(gen.Tiny(), sim.Factory(sim.InstantConfig()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Dev.Close() })
	gpu := device.New(device.InstantConfig())
	t.Cleanup(func() { gpu.Close() })
	return ds, gpu, hostmem.NewBudget(budgetBytes), metrics.NewRecorder()
}

func testOpts() core.Knobs {
	o := core.DefaultKnobs(nn.GraphSAGE)
	o.BatchSize = 40
	o.Fanouts = []int{4, 4}
	return o
}

// budgetForParts is the host budget that leaves room for exactly n
// resident partitions beside the metadata pins and the preparation
// staging.
func budgetForParts(ds *graph.Dataset, n int) int64 {
	partBytes := (ds.NumNodes+partitions-1)/partitions*ds.FeatBytes() + ds.NumEdges*4/partitions
	meta := ds.IndptrBytes() + int64(len(ds.Labels))*4
	return meta + int64(PrepStagingFraction*float64(ds.Layout.FeaturesLen)) + int64(n)*partBytes
}

// trainEpochSwapReads runs one epoch and returns its result with the
// bytes the epoch read from the device beyond what its preparation pass
// reads on its own: the scheduled partition swaps' reads. Sampling and
// feature gathers read untimed, so they add nothing.
func trainEpochSwapReads(t *testing.T, s *System, epoch int) (core.EpochResult, int64) {
	t.Helper()
	read := func() int64 { return s.ds.Dev.Stats().BytesRead }
	before := read()
	if _, err := s.prepare(context.Background(), epoch, &metrics.BreakdownCollector{}); err != nil {
		t.Fatal(err)
	}
	prep := read() - before
	before = read()
	res, err := s.TrainEpoch(context.Background(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	return res, read() - before - prep
}

func TestTrainEpochRunsWithPrep(t *testing.T) {
	ds, gpu, budget, rec := newRig(t, 64<<20)
	s, err := New(ds, gpu, budget, rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, swapRead := trainEpochSwapReads(t, s, 0)
	if res.Prep <= 0 {
		t.Fatal("data preparation not recorded")
	}
	if res.Batches == 0 {
		t.Fatal("no batches trained")
	}
	// With a generous budget every partition is resident: no swaps.
	if s.bufParts != partitions {
		t.Fatalf("%d of %d partitions resident with a generous budget", s.bufParts, partitions)
	}
	if swapRead != 0 {
		t.Fatalf("full buffer read %d bytes beyond preparation; want no swaps", swapRead)
	}
}

func TestPartitionSwapsWhenBufferSmall(t *testing.T) {
	ds, gpu, _, rec := newRig(t, 64<<20)
	s, err := New(ds, gpu, hostmem.NewBudget(budgetForParts(ds, 2)), rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.bufParts != 2 {
		t.Fatalf("%d partitions resident, want 2", s.bufParts)
	}
	res, swapRead := trainEpochSwapReads(t, s, 0)
	// Each swap loads a whole partition: at least its feature rows.
	if part := s.partSize * ds.FeatBytes(); swapRead < part {
		t.Fatalf("2-partition buffer read %d bytes beyond preparation; want partition swaps (>= %d)", swapRead, part)
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
		res, err := s.TrainEpoch(context.Background(), e)
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
