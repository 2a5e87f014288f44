package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

type testRig struct {
	ds     *graph.Dataset
	dev    *device.Device
	budget *hostmem.Budget
	cache  *pagecache.Cache
	rec    *metrics.Recorder
}

// datasetOn builds the rig's dataset on the named storage backend: the
// instant simulator (default) or a real file in a test temp dir (the
// file lands under TMPDIR, so TMPDIR=/dev/shm measures tmpfs).
func datasetOn(t testing.TB, backend string) (*graph.Dataset, error) {
	return datasetOnSpec(t, backend, gen.Tiny())
}

// datasetOnSpec is datasetOn with the dataset spec under the caller's
// control (the cold-extract benchmarks need one larger than Tiny). The
// "linuring" backend uses the fallback ladder, so a rig requested on it
// still builds where the kernel refuses io_uring — benchmarks that must
// measure the real ring guard with linuring.Supported first.
func datasetOnSpec(t testing.TB, backend string, spec gen.Spec) (*graph.Dataset, error) {
	switch backend {
	case "file", "linuring":
		dir, err := os.MkdirTemp("", "gnndrive-core-test-")
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		path := filepath.Join(dir, "data.img")
		if backend == "linuring" {
			return gen.BuildWith(spec, linuring.FallbackFactory(path, linuring.Options{}))
		}
		return gen.BuildWith(spec, func(capacity int64) (storage.Backend, error) {
			return file.Create(path, capacity, file.Options{})
		})
	}
	return gen.BuildWith(spec, sim.Factory(sim.InstantConfig()))
}

// newRig builds a rig on the backend selected by GNNDRIVE_TEST_BACKEND
// ("file" or default sim) — CI runs the fault and stress suites both
// ways (on tmpfs for the file backend).
func newRig(t testing.TB, devCfg device.Config, budgetBytes int64) *testRig {
	return newRigOn(t, devCfg, budgetBytes, os.Getenv("GNNDRIVE_TEST_BACKEND"))
}

func newRigOn(t testing.TB, devCfg device.Config, budgetBytes int64, backend string) *testRig {
	return newRigSpec(t, devCfg, budgetBytes, backend, gen.Tiny())
}

func newRigSpec(t testing.TB, devCfg device.Config, budgetBytes int64, backend string, spec gen.Spec) *testRig {
	t.Helper()
	ds, err := datasetOnSpec(t, backend, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Dev.Close() })
	dev := device.New(devCfg)
	t.Cleanup(func() { dev.Close() })
	budget := hostmem.NewBudget(budgetBytes)
	return &testRig{
		ds: ds, dev: dev, budget: budget,
		cache: pagecache.New(ds.Dev, budget),
		rec:   metrics.NewRecorder(),
	}
}

func testOpts() Options {
	o := DefaultOptions(nn.GraphSAGE)
	o.BatchSize = 40
	o.Fanouts = []int{4, 4}
	o.Samplers = 2
	o.Extractors = 2
	o.RingDepth = 16
	return o
}

func newEngine(t *testing.T, rig *testRig, opts Options) *Engine {
	t.Helper()
	e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestTrainEpochModeledCompletesAllBatches(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	e := newEngine(t, rig, testOpts())
	res, err := e.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBatches := (len(rig.ds.TrainIdx) + 39) / 40
	if res.Batches != wantBatches {
		t.Fatalf("batches %d want %d", res.Batches, wantBatches)
	}
	if res.NodesExtracted == 0 || res.BytesRead == 0 {
		t.Fatalf("no extraction recorded: %+v", res.Breakdown)
	}
	if res.Sample == 0 || res.Extract == 0 {
		t.Fatalf("missing stage times: %+v", res.Breakdown)
	}
	// After the epoch every reference must be released.
	if e.FeatureBuffer().StandbyLen() != e.FeatureBuffer().Slots() {
		t.Fatal("slots leaked after epoch")
	}
}

func TestExtractedFeaturesMatchDisk(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.RealTrain = true
	opts.Hidden = 32
	e := newEngine(t, rig, opts)
	if _, err := e.TrainEpochFrom(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Spot-check: every currently valid node's buffered vector equals the
	// on-disk feature.
	fb := e.FeatureBuffer()
	checked := 0
	for v := int64(0); v < rig.ds.NumNodes && checked < 200; v++ {
		if !fb.Valid(v) {
			continue
		}
		want, err := rig.ds.ReadFeatureRaw(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := fb.SlotData(fb.entries[v].slot)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("node %d dim %d: buffer %v disk %v", v, j, got[j], want[j])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no valid nodes to check")
	}
}

func TestRealTrainingConvergesOnTiny(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.RealTrain = true
	opts.Hidden = 48
	opts.LR = 0.01
	e := newEngine(t, rig, opts)
	var firstLoss, lastLoss float64
	for epoch := 0; epoch < 4; epoch++ {
		res, err := e.TrainEpochFrom(context.Background(), epoch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			firstLoss = res.Loss
		}
		lastLoss = res.Loss
	}
	if lastLoss >= firstLoss {
		t.Fatalf("loss did not improve: %v -> %v", firstLoss, lastLoss)
	}
	acc, err := e.EvaluateVal()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.4 {
		t.Fatalf("val accuracy %.3f too low after 4 epochs (8 classes, chance=0.125)", acc)
	}
}

// TestEvaluateModelReportsReadError: validation gathers features through
// ReadFeatureRaw, so an image cut off where the feature region starts
// must fail the evaluation with the read error, not panic.
func TestEvaluateModelReportsReadError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.img")
	ds, err := gen.BuildWith(gen.Tiny(), file.Factory(path, file.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	if err := os.Truncate(path, ds.Layout.FeaturesOff); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	model := nn.NewModel(nn.Config{Kind: opts.Model, InDim: ds.Dim, Hidden: 8,
		Classes: ds.NumClasses, Layers: len(opts.Fanouts)}, tensor.NewRNG(1))
	if _, err := EvaluateModel(ds, model, opts.Fanouts, ds.ValIdx, 1); !errors.Is(err, io.EOF) {
		t.Fatalf("evaluating over a truncated image: err %v, want one wrapping io.EOF", err)
	}
}

func TestSyncExtractionAblation(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.SyncExtraction = true
	e := newEngine(t, rig, opts)
	res, err := e.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches == 0 {
		t.Fatal("no batches")
	}
}

func TestBufferedIOReadsExactBytes(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.BufferedIO = true
	e := newEngine(t, rig, opts)
	res, err := e.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead != res.NodesExtracted*rig.ds.FeatBytes() {
		t.Fatalf("buffered mode read %d bytes for %d nodes (feat %d B): redundancy should be zero",
			res.BytesRead, res.NodesExtracted, rig.ds.FeatBytes())
	}
}

func TestDirectIOHasAlignmentRedundancyForOddDim(t *testing.T) {
	// Tiny has dim 32 -> 128 B < 512 B sector: direct reads must fetch at
	// least the covering sectors, so BytesRead > nodes*featBytes unless
	// joint extraction packs perfectly.
	rig := newRig(t, device.InstantConfig(), 64<<20)
	e := newEngine(t, rig, testOpts())
	res, err := e.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead < res.NodesExtracted*rig.ds.FeatBytes() {
		t.Fatal("read fewer bytes than the features need")
	}
}

func TestInOrderAblationForcesSingleWorkers(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.InOrder = true
	e := newEngine(t, rig, opts)
	if e.opts.Samplers != 1 || e.opts.Extractors != 1 {
		t.Fatalf("in-order must run 1+1 workers, got %d+%d", e.opts.Samplers, e.opts.Extractors)
	}
	if _, err := e.TrainEpochFrom(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceOOMOnTinyGPU(t *testing.T) {
	cfg := device.InstantConfig()
	cfg.MemBytes = 1024 // absurdly small device memory
	rig := newRig(t, cfg, 64<<20)
	_, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, testOpts())
	if !errors.Is(err, device.ErrDeviceOOM) {
		t.Fatalf("want device OOM, got %v", err)
	}
	if rig.budget.Pinned() != 0 {
		t.Fatalf("host pins leaked: %d", rig.budget.Pinned())
	}
}

func TestHostOOMOnTinyBudget(t *testing.T) {
	// 48 KiB: tiny's indptr and labels (23.4 KiB) fit, its 32 KiB staging
	// pool does not.
	rig := newRig(t, device.InstantConfig(), 48<<10)
	_, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, testOpts())
	if !errors.Is(err, hostmem.ErrOOM) {
		t.Fatalf("want host OOM, got %v", err)
	}
}

func TestCPUDevicePinsFeatureBufferInHostBudget(t *testing.T) {
	cfg := device.XeonCPU()
	cfg.TimeScale = 0
	cfg.Throughput = 0
	rig := newRig(t, cfg, 64<<20)
	before := rig.budget.Pinned()
	e := newEngine(t, rig, testOpts())
	if rig.budget.Pinned() <= before+e.FeatureBuffer().Bytes()-1 {
		t.Fatalf("feature buffer not pinned on host: pinned=%d fb=%d", rig.budget.Pinned(), e.FeatureBuffer().Bytes())
	}
	if _, err := e.TrainEpochFrom(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSampleOnly(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	e := newEngine(t, rig, testOpts())
	d, err := e.SampleOnly(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("sample-only time must be positive")
	}
}

func TestFeatureSlotsTooSmallRejected(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.FeatureSlots = 10
	_, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, opts)
	if !errors.Is(err, ErrBufferTooSmall) {
		t.Fatalf("want ErrBufferTooSmall, got %v", err)
	}
}

func TestCloseReleasesEverything(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	e, err := New(rig.ds, rig.dev, rig.budget, rig.cache, rig.rec, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if rig.budget.Pinned() != 0 {
		t.Fatalf("host pins leaked: %d", rig.budget.Pinned())
	}
	if rig.dev.MemUsed() != 0 {
		t.Fatalf("device memory leaked: %d", rig.dev.MemUsed())
	}
}

func TestParallelTwoWorkers(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	dev2 := device.New(device.InstantConfig())
	t.Cleanup(func() { dev2.Close() })
	opts := testOpts()
	opts.RealTrain = true
	opts.Hidden = 32
	p, err := NewParallel(rig.ds, []*device.Device{rig.dev, dev2}, rig.budget, rig.cache, rig.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if p.Workers() != 2 {
		t.Fatalf("workers %d", p.Workers())
	}
	_, results, err := p.TrainEpochCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Batches == 0 || results[0].Batches != results[1].Batches {
		t.Fatalf("unbalanced segments: %d vs %d", results[0].Batches, results[1].Batches)
	}
	// Replicas must hold identical parameters after synchronized steps.
	a, b := p.engines[0].Model().Params(), p.engines[1].Model().Params()
	for i := range a {
		for j := range a[i].W.Data {
			if a[i].W.Data[j] != b[i].W.Data[j] {
				t.Fatalf("replica params diverged at %s[%d]", a[i].Name, j)
			}
		}
	}
}

func TestParallelRejectsTooManyWorkers(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.BatchSize = len(rig.ds.TrainIdx) // one batch total
	p, err := NewParallel(rig.ds, []*device.Device{rig.dev, rig.dev}, rig.budget, rig.cache, rig.rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if _, _, err := p.TrainEpochCtx(context.Background(), 0); err == nil {
		t.Fatal("expected segmentation error")
	}
}
