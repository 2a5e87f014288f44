package pygplus

import (
	"context"
	"errors"
	"testing"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage/sim"
)

type rig struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	cache  *pagecache.Cache
	rec    *metrics.Recorder
}

func newRig(t *testing.T, budgetBytes int64) *rig {
	t.Helper()
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.InstantConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Dev.Close() })
	dev := device.New(device.InstantConfig())
	t.Cleanup(func() { dev.Close() })
	budget := hostmem.NewBudget(budgetBytes)
	return &rig{ds: ds, dev: dev, budget: budget,
		cache: pagecache.New(ds.Dev, budget), rec: metrics.NewRecorder()}
}

func testOpts() Options {
	o := DefaultOptions(nn.GraphSAGE)
	o.BatchSize = 40
	o.Fanouts = []int{4, 4}
	o.PerNodeGatherCPU = 0
	o.TimeScale = 1
	return o
}

func TestTrainEpochCompletes(t *testing.T) {
	r := newRig(t, 64<<20)
	s, err := New(r.ds, r.dev, r.budget, r.cache, r.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.TrainEpoch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := (len(r.ds.TrainIdx) + 39) / 40
	if res.Batches != want {
		t.Fatalf("batches %d want %d", res.Batches, want)
	}
	if res.NodesExtracted == 0 || res.Extract == 0 || res.Sample == 0 || res.Train == 0 {
		t.Fatalf("breakdown %+v", res.Breakdown)
	}
	// Extraction goes through the page cache: misses must be recorded.
	if r.cache.Stats().Misses == 0 {
		t.Fatal("no page-cache activity")
	}
}

func TestRealTrainingLearns(t *testing.T) {
	r := newRig(t, 64<<20)
	opts := testOpts()
	opts.RealTrain = true
	opts.Hidden = 32
	opts.LR = 0.01
	s, err := New(r.ds, r.dev, r.budget, r.cache, r.rec, opts)
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

func TestGatherOOMOnHugeBatch(t *testing.T) {
	// Budget barely covers metadata: the per-batch gather tensor must
	// trip host OOM (the paper's Fig. 10 PyG+ OOM).
	r := newRig(t, 64<<10)
	opts := testOpts()
	opts.BatchSize = 400
	s, err := New(r.ds, r.dev, r.budget, r.cache, r.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.TrainEpoch(context.Background(), 0)
	if !errors.Is(err, hostmem.ErrOOM) {
		t.Fatalf("want host OOM, got %v", err)
	}
}

func TestDeviceOOMOnHugeBatch(t *testing.T) {
	r := newRig(t, 64<<20)
	cfg := device.InstantConfig()
	cfg.MemBytes = 2048
	dev := device.New(cfg)
	defer dev.Close()
	opts := testOpts()
	s, err := New(r.ds, dev, r.budget, r.cache, r.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.TrainEpoch(context.Background(), 0)
	if !errors.Is(err, device.ErrDeviceOOM) {
		t.Fatalf("want device OOM, got %v", err)
	}
}

func TestSampleOnlyFasterWithoutExtraction(t *testing.T) {
	r := newRig(t, 64<<20)
	s, err := New(r.ds, r.dev, r.budget, r.cache, r.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.SampleOnly(0)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("sampling time must be positive")
	}
}

func TestCloseUnpins(t *testing.T) {
	r := newRig(t, 64<<20)
	s, err := New(r.ds, r.dev, r.budget, r.cache, r.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if r.budget.Pinned() != 0 {
		t.Fatalf("pinned %d after close", r.budget.Pinned())
	}
}
