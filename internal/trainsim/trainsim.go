// Package trainsim is the experiment harness: it assembles a scaled
// dataset, a host-memory budget, the simulated SSD and page cache, and a
// training device, runs any of the four systems (GNNDrive-GPU,
// GNNDrive-CPU, PyG+, Ginex, MariusGNN) for a number of epochs, and
// returns uniform per-epoch statistics. Every figure and table harness in
// cmd/figures and the bench files is a thin loop over this package.
//
// Scale conventions (see DESIGN.md): datasets are 1:1000 of the paper's
// graphs, so "32 GB" of host memory is 32 MiB here (GB -> MiB), device
// memory likewise, and epoch times land in hundreds of milliseconds to
// tens of seconds depending on Scale.
package trainsim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gnndrive/internal/baselines/ginex"
	"gnndrive/internal/baselines/marius"
	"gnndrive/internal/baselines/pygplus"
	"gnndrive/internal/checkpoint"
	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/faults"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/sim"
)

// GB is the scaled stand-in for one paper-gigabyte of memory.
const GB = 1 << 20 // 1 MiB

// ScratchBytes is the device scratch region appended after each dataset
// (Ginex's persisted sampling results).
const ScratchBytes = 8 << 20

// SystemKind names a training system.
type SystemKind int

// The five system variants the paper evaluates.
const (
	GNNDriveGPU SystemKind = iota
	GNNDriveCPU
	PyGPlus
	Ginex
	Marius
)

// String returns the system name as the paper spells it.
func (k SystemKind) String() string {
	switch k {
	case GNNDriveGPU:
		return "GNNDrive-GPU"
	case GNNDriveCPU:
		return "GNNDrive-CPU"
	case PyGPlus:
		return "PyG+"
	case Ginex:
		return "Ginex"
	case Marius:
		return "MariusGNN"
	}
	return fmt.Sprintf("SystemKind(%d)", int(k))
}

// Config describes one experimental cell.
type Config struct {
	// Dataset is the scaled dataset spec; Dim overrides its feature
	// dimension when non-zero (the Fig. 8 sweep).
	Dataset gen.Spec
	Dim     int

	// HostMemoryGB is the host budget in paper-gigabytes (default 32).
	HostMemoryGB int

	Model nn.ModelKind
	// BatchSize/Fanouts override the scaled defaults when non-zero.
	BatchSize int
	Fanouts   []int

	// Scale stretches all modeled durations (SSD, DMA, compute). The
	// default 2.0 makes a default GNNDrive epoch take O(seconds).
	Scale float64

	// FeatureBufferX multiplies GNNDrive's auto-sized feature buffer
	// (Fig. 12); 0 or 1 = default.
	FeatureBufferX float64
	// FeatureSlots pins the feature-buffer capacity directly (GNNDrive
	// systems; overrides FeatureBufferX). The serve daemon uses it to
	// carve a fixed per-job slice out of one admission budget.
	FeatureSlots int

	// SharedStaging, when non-nil, is an externally owned staging pool —
	// typically a quota view carved from a multi-tenant daemon's shared
	// pool — that the GNNDrive engine stages through instead of
	// allocating its own (see core.Options.SharedStaging). The caller
	// keeps ownership: the run never closes it.
	SharedStaging *core.Staging
	// IOGate, when non-nil, rations the engine's extract-read
	// submissions against a shared token budget (see core.IOGate).
	IOGate core.IOGate
	// Rec, when non-nil, substitutes for the run's internally allocated
	// metrics recorder so a supervisor can keep per-job counters.
	Rec *metrics.Recorder
	// OnStall, when non-nil, receives the pipeline watchdog's structured
	// diagnostics when a stall trips (GNNDrive with a StallDeadline).
	OnStall func(core.StallDiagnostics)
	// OnEngine, when non-nil, observes the live engine right after
	// construction (GNNDrive systems only). The serve daemon uses the
	// handle to request demand checkpoints during drain; the engine is
	// only valid until the run returns.
	OnEngine func(*core.Engine)
	// OnEpoch, when non-nil, observes each completed epoch's stats
	// before the next epoch starts (all systems).
	OnEpoch func(epoch int, st EpochStats)

	// RealTrain runs real float32 math (Fig. 14); otherwise modeled.
	RealTrain bool
	// Hidden overrides the hidden dimension (0 = the paper's 256).
	Hidden int
	// TrainLimit truncates the training split to this many nodes
	// (keeps real-math runs affordable on one core).
	TrainLimit int

	// GNNDrive ablation switches (ignored by the baselines).
	InOrder        bool
	SyncExtraction bool
	BufferedIO     bool
	// GPUDirect enables the modeled GPUDirect Storage path (§4.4
	// extension): no host staging, 4 KiB access granularity.
	GPUDirect bool

	// Layout selects the feature-region layout the dataset is built
	// with: "" or "strided" for the dense node-ID-order table, "packed"
	// to run the offline packer after generation — an epoch-0 sample
	// trace (same plan and batch seeds the engine will use) decides
	// segment placement, and the engine reads through the packed
	// addresser. Packed cells cache separately per (model, batch,
	// fanouts, seed) because the trace depends on them.
	Layout string
	// LoadFile, when non-empty, loads this .gnnd container (with any
	// sidecars: .pidx segment index, .crc checksums) instead of
	// generating a dataset; Dataset/Dim/Layout are ignored. The
	// container's header decides the layout, exactly like cmd/gnndrive
	// -load.
	LoadFile string

	// Backend selects the storage backend the dataset lives on: "sim"
	// (default — the modeled SSD, timing scaled by Scale), "file" (a
	// real file served by storage/file with best-effort O_DIRECT; timing
	// is the actual disk's, so modeled-latency comparisons do not apply),
	// or "linuring" (a real file served through a Linux io_uring with
	// batched submission, degrading to "file" where the kernel refuses).
	Backend string
	// DataFile is the backing path for Backend "file". Empty means a
	// per-cell temp file under os.TempDir(), removed by DropDatasets.
	DataFile string
	// Logf, when non-nil, receives backend diagnostics (currently the
	// linuring backend's one-line fallback notice when io_uring is
	// unavailable and the file worker pool serves instead).
	Logf func(format string, args ...any)

	// Faults, when non-nil, attaches a storage fault-injection schedule to
	// the dataset device for the duration of the run (detached afterwards:
	// the device is cached across runs). GNNDrive's extract path retries
	// transient errors; the baselines surface them.
	Faults *faults.Config

	// Integrity, when non-nil, wraps the dataset backend in the checksum
	// verification layer (storage/integrity): every read is verified
	// against per-block CRC32C, mismatches are repaired by raw re-reads,
	// and — when the options enable them — slow reads are hedged and the
	// degradation breaker can trip direct I/O down to buffered. For the
	// file backend a checksum sidecar (<data file>.crc) is persisted after
	// the dataset build.
	Integrity *integrity.Options

	// CheckpointDir enables GNNDrive's crash-consistent run
	// checkpointing into this directory (ignored by the baselines).
	CheckpointDir string
	// CheckpointEverySteps is the mid-epoch save cadence in trainer
	// steps (effective in InOrder mode; otherwise only epoch boundaries
	// are checkpointed). 0 = epoch boundaries only.
	CheckpointEverySteps int
	// Resume restores the newest valid checkpoint in CheckpointDir
	// before training and continues from its cursor. With no checkpoint
	// present the run starts fresh.
	Resume bool
	// StallDeadline arms GNNDrive's pipeline watchdog: an epoch with no
	// stage progress for this long fails with core.ErrPipelineStalled
	// instead of hanging. 0 disables it.
	StallDeadline time.Duration

	Seed uint64
}

// DefaultScale is the default time stretch.
const DefaultScale = 2.0

func (c *Config) fill() {
	if c.HostMemoryGB == 0 {
		c.HostMemoryGB = 32
	}
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// EpochStats is the uniform per-epoch report across systems: the
// system's own stage times and counters (the baselines leave the fault
// and integrity counters zero), plus the training outcome.
type EpochStats struct {
	metrics.Breakdown
	Loss, Acc float64
	// StepLosses is the per-step loss sequence in trainer order
	// (GNNDrive real-training runs; nil otherwise). Deterministic for a
	// fixed seed, so resume tests can compare trajectories step by step.
	StepLosses []float32
}

// Result is a full run.
type Result struct {
	System SystemKind
	Epochs []EpochStats
	// Windows is the utilization time series when sampling was enabled.
	Windows []metrics.Window
	// ValAcc per epoch (real training only, when requested).
	ValAcc []float64
	// FaultCounts is the injector's tally for the run when Config.Faults
	// was set: how many faults of each class were actually injected
	// (a chaos run that injected nothing proves nothing).
	FaultCounts faults.Counts
}

// AvgEpoch returns the mean wall-clock epoch time.
func (r Result) AvgEpoch() time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, e := range r.Epochs {
		sum += e.Total
	}
	return sum / time.Duration(len(r.Epochs))
}

// AvgPrep returns the mean data-preparation time per epoch.
func (r Result) AvgPrep() time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, e := range r.Epochs {
		sum += e.Prep
	}
	return sum / time.Duration(len(r.Epochs))
}

// ---- dataset registry ----

// datasets are cached per (name, dim, scale, backend, data file): building
// the big ones takes seconds and the device image is read-only across runs
// (Ginex's scratch and Marius's prep rewrite live outside / rewrite
// identical bytes).
var (
	dsMu    sync.Mutex
	dsCache = map[string]*graph.Dataset{}
	// dsTemp maps cache keys to auto-created backing files (file backend
	// with no DataFile), deleted by DropDatasets.
	dsTemp = map[string]string{}
)

// backendFactory builds the storage factory for one dataset cell,
// wrapping it in the integrity layer when the config asks for one. name
// and dim label auto-created backing files. It returns the factory, the
// data-file path ("" for sim), and the temp path it will create (file
// backends with no explicit DataFile), so DropDatasets can remove it.
// Returning a factory instead of a backend lets graph.Load size the
// backend itself from the container header.
func backendFactory(cfg Config, name string, dim int) (storage.Factory, string, string, error) {
	var (
		f    storage.Factory
		path string
		temp string
	)
	switch cfg.Backend {
	case "", "sim":
		scfg := sim.DefaultConfig()
		scfg.TimeScale = cfg.Scale
		f = func(capacity int64) (storage.Backend, error) { return sim.New(capacity, scfg), nil }
	case "file":
		path = cfg.DataFile
		if path == "" {
			path = filepath.Join(os.TempDir(),
				fmt.Sprintf("gnndrive-%s-%d-%g.img", name, dim, cfg.Scale))
			temp = path
		}
		p := path
		f = func(capacity int64) (storage.Backend, error) { return file.Create(p, capacity, file.Options{}) }
	case "linuring":
		path = cfg.DataFile
		if path == "" {
			path = filepath.Join(os.TempDir(),
				fmt.Sprintf("gnndrive-%s-%d-%g.img", name, dim, cfg.Scale))
			temp = path
		}
		// FallbackFactory degrades to the file worker pool where the
		// kernel refuses io_uring, so a "linuring" config runs anywhere.
		f = linuring.FallbackFactory(path, linuring.Options{Logf: cfg.Logf})
	default:
		return nil, "", "", fmt.Errorf("trainsim: unknown backend %q (want sim, file, or linuring)", cfg.Backend)
	}
	if cfg.Integrity != nil {
		f = integrity.WrapFactory(f, *cfg.Integrity)
	}
	return f, path, temp, nil
}

// newBackend is backendFactory applied at a fixed capacity, for the
// generation path where the spec decides the size up front.
func newBackend(cfg Config, spec gen.Spec, capacity int64) (storage.Backend, string, string, error) {
	f, path, temp, err := backendFactory(cfg, spec.Name, spec.Dim)
	if err != nil {
		return nil, "", "", err
	}
	dev, err := f(capacity)
	if err != nil {
		return nil, "", "", err
	}
	return dev, path, temp, nil
}

// integrityKey flattens the scalar integrity knobs into the dataset cache
// key, so cells with different verification configs never share a wrapped
// backend. The repair classifier and Logf are funcs and stay out of the
// key; the budget scalars and breaker geometry are what change behavior.
func integrityKey(o *integrity.Options) string {
	if o == nil {
		return "none"
	}
	return fmt.Sprintf("%d:%v:%v:%d:%v:%d:%d:%g:%v:%v:%s",
		o.BlockSize, o.DisableRepair, o.HedgeAfter,
		o.Repair.MaxAttempts, o.Repair.BaseDelay,
		o.Breaker.Window, o.Breaker.MinSamples, o.Breaker.TripRate,
		o.Breaker.SlowAfter, o.Breaker.Cooldown, o.SidecarPath)
}

// layoutKey flattens the layout choice into the dataset cache key. A
// packed cell's bytes depend on the epoch-0 trace, which depends on the
// training configuration, so those knobs join the key.
func layoutKey(cfg Config) string {
	switch cfg.Layout {
	case "", "strided":
		return "strided"
	}
	o := cfg.EngineOptions()
	return fmt.Sprintf("%s/%v/%d/%v/%d", cfg.Layout, cfg.Model, o.BatchSize, o.Fanouts, cfg.Seed)
}

// cacheKey identifies one dataset cell. BaseContext and callback fields
// stay out on purpose: they don't change the bytes on the device.
func cacheKey(cfg Config, spec gen.Spec) string {
	if cfg.LoadFile != "" {
		return fmt.Sprintf("load/%s/%g/%s/%s/%s", cfg.LoadFile, cfg.Scale,
			cfg.Backend, cfg.DataFile, integrityKey(cfg.Integrity))
	}
	return fmt.Sprintf("%s/%d/%g/%s/%s/%s/%s", spec.Name, spec.Dim, cfg.Scale,
		cfg.Backend, cfg.DataFile, integrityKey(cfg.Integrity), layoutKey(cfg))
}

// buildDataset returns the cached dataset for the config.
func buildDataset(cfg Config) (*graph.Dataset, error) {
	spec := cfg.Dataset
	if cfg.Dim != 0 {
		spec.Dim = cfg.Dim
	}
	key := cacheKey(cfg, spec)
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds, nil
	}
	if cfg.LoadFile != "" {
		f, _, temp, err := backendFactory(cfg, "load-"+filepath.Base(cfg.LoadFile), 0)
		if err != nil {
			return nil, err
		}
		ds, err := graph.Load(cfg.LoadFile, f, ScratchBytes)
		if err != nil {
			if temp != "" {
				os.Remove(temp)
			}
			return nil, err
		}
		dsCache[key] = ds
		if temp != "" {
			dsTemp[key] = temp
		}
		return ds, nil
	}
	switch cfg.Layout {
	case "", "strided", "packed":
	default:
		return nil, fmt.Errorf("trainsim: unknown layout %q (want strided or packed)", cfg.Layout)
	}
	dev, path, temp, err := newBackend(cfg, spec, spec.SizeBytes()+ScratchBytes)
	if err != nil {
		return nil, err
	}
	ds, err := gen.Build(spec, dev, 0)
	if err == nil && cfg.Layout == "packed" {
		err = packDataset(ds, cfg)
	}
	if err != nil {
		dev.Close()
		if temp != "" {
			os.Remove(temp)
		}
		return nil, err
	}
	// The build wrote every dataset byte through the integrity wrapper —
	// and the packer permuted them through the same wrapper, keeping the
	// checksum table current — so persist it next to the data file so
	// later processes can open the same file verified from the first read.
	if ib, ok := dev.(*integrity.Backend); ok && path != "" {
		if serr := ib.SaveSidecar(path + ".crc"); serr != nil {
			fmt.Printf("trainsim: checksum sidecar save failed: %v\n", serr)
		}
	}
	dsCache[key] = ds
	if temp != "" {
		dsTemp[key] = temp
	}
	return ds, nil
}

// packDataset runs the offline packer on a freshly generated dataset:
// sample the epoch-0 trace with the exact seeds the engine will use,
// permute the feature region in place, and install the packed addresser.
func packDataset(ds *graph.Dataset, cfg Config) error {
	o := cfg.EngineOptions()
	tr, err := gen.SampleTrace(ds, o.BatchSize, o.Fanouts, cfg.Seed, true)
	if err != nil {
		return fmt.Errorf("trainsim: pack trace: %w", err)
	}
	p, err := layout.PackInPlace(ds.Dev, ds.Layout.FeaturesOff, int(ds.FeatBytes()),
		ds.NumNodes, tr, layout.PackOptions{})
	if err != nil {
		return fmt.Errorf("trainsim: pack: %w", err)
	}
	ds.Addr = p
	return nil
}

// DeviceStats returns the storage counters of the cached dataset backend
// for the config (diagnostics).
func DeviceStats(cfg Config) storage.Stats {
	cfg.fill()
	ds, err := buildDataset(cfg)
	if err != nil {
		return storage.Stats{}
	}
	return ds.Dev.Stats()
}

// DropDataset evicts the single dataset cell the config maps to, closing
// its backend and removing any auto-created backing file. A no-op when
// the cell was never built. The serve daemon calls it when a job is
// fully done, so one tenant's dataset doesn't pin memory for the rest.
func DropDataset(cfg Config) {
	cfg.fill()
	spec := cfg.Dataset
	if cfg.Dim != 0 {
		spec.Dim = cfg.Dim
	}
	key := cacheKey(cfg, spec)
	dsMu.Lock()
	defer dsMu.Unlock()
	ds, ok := dsCache[key]
	if !ok {
		return
	}
	ds.Dev.Close()
	if path, ok := dsTemp[key]; ok {
		os.Remove(path)
		os.Remove(path + ".crc")
		delete(dsTemp, key)
	}
	delete(dsCache, key)
}

// DropDatasets clears the dataset cache (frees memory between sweeps) and
// removes any auto-created backing files.
func DropDatasets() {
	dsMu.Lock()
	defer dsMu.Unlock()
	for k, ds := range dsCache {
		ds.Dev.Close()
		if path, ok := dsTemp[k]; ok {
			os.Remove(path)
			os.Remove(path + ".crc")
			delete(dsTemp, k)
		}
		delete(dsCache, k)
	}
}

// newDevice builds the training processor for a system at the config's
// time scale.
func newDevice(sys SystemKind, cfg Config) *device.Device {
	var dcfg device.Config
	if sys == GNNDriveCPU {
		dcfg = device.XeonCPU()
	} else {
		dcfg = device.RTX3090()
	}
	dcfg.TimeScale = cfg.Scale
	if cfg.RealTrain {
		// Real math takes real time; don't add modeled compute on top.
		dcfg.Throughput = 0
	}
	return device.New(dcfg)
}

// RunOptions tune a Run.
type RunOptions struct {
	Epochs int
	// SampleUtil enables the utilization sampler at this interval.
	SampleUtil time.Duration
	// EvalVal computes validation accuracy after each epoch (real mode).
	EvalVal bool
}

// RunCtx executes sys on cfg for opts.Epochs epochs under ctx: the
// context threads through the epoch loop into the engine's training
// steps, so cancelling it stops a run — including a resumed one —
// between batches instead of waiting out the epoch.
func RunCtx(ctx context.Context, cfg Config, sys SystemKind, opts RunOptions) (res Result, err error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	cfg.fill()
	if opts.Epochs == 0 {
		opts.Epochs = 1
	}
	ds, err := buildDataset(cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.TrainLimit > 0 && cfg.TrainLimit < len(ds.TrainIdx) {
		trimmed := *ds
		trimmed.TrainIdx = ds.TrainIdx[:cfg.TrainLimit]
		ds = &trimmed
	}
	if cfg.Faults != nil {
		inj := faults.NewInjector(*cfg.Faults)
		ds.Dev.SetInjector(inj)
		defer func() {
			// Tally before detaching: every return path (including
			// cancellation) reports how much chaos was actually injected.
			res.FaultCounts = inj.Counts()
			ds.Dev.SetInjector(nil)
		}()
	}
	budget := hostmem.NewBudget(int64(cfg.HostMemoryGB) * GB)
	cache := pagecache.New(ds.Dev, budget)
	rec := cfg.Rec
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	dev := newDevice(sys, cfg)
	defer dev.Close()

	var sampler *metrics.Sampler
	if opts.SampleUtil > 0 {
		// Normalizers: the paper's machine runs many worker threads; we
		// normalize by the stage worker counts of the busiest system.
		sampler = rec.StartSampler(opts.SampleUtil, 6, 6)
	}

	res = Result{System: sys}
	runEpoch, closer, startEpoch, model, err := buildSystem(sys, ds, dev, budget, cache, rec, cfg)
	if err != nil {
		if sampler != nil {
			sampler.Stop()
		}
		return res, err
	}
	defer closer()

	// A resumed run continues from its checkpoint cursor: epochs before
	// startEpoch are already done and are not re-run.
	for e := startEpoch; e < opts.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			if sampler != nil {
				res.Windows = sampler.Stop()
			}
			return res, err
		}
		st, err := runEpoch(ctx, e)
		if err != nil {
			if sampler != nil {
				res.Windows = sampler.Stop()
				sampler = nil
			}
			return res, err
		}
		res.Epochs = append(res.Epochs, st)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(e, st)
		}
		if opts.EvalVal {
			acc, err := evalVal(ds, model, cfg)
			if err != nil {
				acc = 0
			}
			res.ValAcc = append(res.ValAcc, acc)
		}
	}
	if sampler != nil {
		res.Windows = sampler.Stop()
	}
	return res, nil
}

// evalVal scores the run's live model on the validation split. The model
// is threaded through from buildSystem (not a package global) so
// concurrent runs in one process never read each other's weights.
func evalVal(ds *graph.Dataset, model *nn.Model, cfg Config) (float64, error) {
	if model == nil {
		return 0, fmt.Errorf("trainsim: no model")
	}
	return core.EvaluateModel(ds, model, cfg.EngineOptions().Fanouts, ds.ValIdx, cfg.Seed)
}

// EngineOptions lowers the dataset-free part of a Config to engine
// options. It is the only Config → core.Options path: the harness, the
// packer's trace, the dataset cache key, the baselines' shared knobs and
// the serve daemon's admission pricing all start from its result, so a
// default or an override cannot mean one thing to the run and another to
// whoever sized or keyed it. FeatureBufferX is the one knob that needs the
// built dataset; engineOptions adds it.
func (c Config) EngineOptions() core.Options {
	o := core.DefaultOptions(c.Model)
	if c.BatchSize != 0 {
		o.BatchSize = c.BatchSize
	}
	if len(c.Fanouts) != 0 {
		o.Fanouts = c.Fanouts
	}
	if c.Hidden != 0 {
		o.Hidden = c.Hidden
	}
	o.FeatureSlots = c.FeatureSlots
	o.RealTrain = c.RealTrain
	o.Seed = c.Seed
	o.InOrder = c.InOrder
	o.SyncExtraction = c.SyncExtraction
	o.BufferedIO = c.BufferedIO
	o.GPUDirect = c.GPUDirect
	o.CheckpointDir = c.CheckpointDir
	o.CheckpointEverySteps = c.CheckpointEverySteps
	o.StallDeadline = c.StallDeadline
	o.OnStall = c.OnStall
	o.SharedStaging = c.SharedStaging
	o.IOGate = c.IOGate
	return o
}

// engineOptions is EngineOptions plus the Fig. 12 sweep: FeatureBufferX
// multiples of the minimum working set (Ne x Mb), clamped to the device
// allowance and graph size. An explicit FeatureSlots wins.
func engineOptions(cfg Config, ds *graph.Dataset, dev *device.Device) (core.Options, error) {
	o := cfg.EngineOptions()
	if o.FeatureSlots > 0 || cfg.FeatureBufferX <= 0 {
		return o, nil
	}
	mb, err := sample.EstimateMaxBatchNodes(ds, o.BatchSize, o.Fanouts, 4, o.Seed)
	if err != nil {
		return o, err
	}
	slots := int(cfg.FeatureBufferX * float64(o.Extractors*mb))
	if lim := int(dev.MemBytes() * 9 / 10 / ds.FeatBytes()); dev.Kind() == device.GPU && slots > lim {
		slots = lim
	}
	if slots > int(ds.NumNodes) {
		slots = int(ds.NumNodes)
	}
	o.FeatureSlots = slots
	return o, nil
}

// The baselines share the engine's model, batch and seed knobs; each takes
// them from the one lowering and keeps its own defaults for the rest.

func pygOptions(cfg Config) pygplus.Options {
	e, o := cfg.EngineOptions(), pygplus.DefaultOptions(cfg.Model)
	o.BatchSize, o.Fanouts, o.Hidden, o.RealTrain, o.Seed = e.BatchSize, e.Fanouts, e.Hidden, e.RealTrain, e.Seed
	o.TimeScale = cfg.Scale
	return o
}

func ginexOptions(cfg Config, ds *graph.Dataset) ginex.Options {
	e, o := cfg.EngineOptions(), ginex.DefaultOptions(cfg.Model)
	o.BatchSize, o.Fanouts, o.Hidden, o.RealTrain, o.Seed = e.BatchSize, e.Fanouts, e.Hidden, e.RealTrain, e.Seed
	o.ScratchOff = ds.Layout.FeaturesOff + ds.Layout.FeaturesLen
	o.ScratchLen = ScratchBytes / 2
	return o
}

func mariusOptions(cfg Config) marius.Options {
	e, o := cfg.EngineOptions(), marius.DefaultOptions(cfg.Model)
	o.BatchSize, o.Fanouts, o.Hidden, o.RealTrain, o.Seed = e.BatchSize, e.Fanouts, e.Hidden, e.RealTrain, e.Seed
	return o
}

// buildSystem constructs the system and returns an epoch runner, a
// closer, the epoch to start from (non-zero only for a resumed GNNDrive
// run), and the live model for validation scoring.
func buildSystem(sys SystemKind, ds *graph.Dataset, dev *device.Device,
	budget *hostmem.Budget, cache *pagecache.Cache, rec *metrics.Recorder,
	cfg Config) (func(context.Context, int) (EpochStats, error), func(), int, *nn.Model, error) {
	switch sys {
	case GNNDriveGPU, GNNDriveCPU:
		o, err := engineOptions(cfg, ds, dev)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		eng, err := core.New(ds, dev, budget, cache, rec, o)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		if cfg.OnEngine != nil {
			cfg.OnEngine(eng)
		}
		startEpoch, resumeStep := 0, 0
		if cfg.Resume && cfg.CheckpointDir != "" {
			ep, st, rerr := eng.ResumeRunState()
			switch {
			case rerr == nil:
				startEpoch, resumeStep = ep, st
			case errors.Is(rerr, checkpoint.ErrNoCheckpoint):
				// Nothing to resume: a fresh run is the right behavior
				// (first launch with -resume in the restart loop).
			default:
				eng.Close()
				return nil, nil, 0, nil, rerr
			}
		}
		return func(ctx context.Context, e int) (EpochStats, error) {
			step := 0
			if e == startEpoch {
				step = resumeStep
			}
			r, err := eng.TrainEpochFrom(ctx, e, step)
			if err == nil && r.CheckpointErr != nil {
				// Save failures degrade resume granularity, not training;
				// surface them without failing the run.
				fmt.Printf("trainsim: checkpoint save failed: %v\n", r.CheckpointErr)
			}
			return EpochStats{Breakdown: r.Breakdown, Loss: r.Loss, Acc: r.Acc, StepLosses: r.StepLosses}, err
		}, eng.Close, startEpoch, eng.Model(), nil

	case PyGPlus:
		sysm, err := pygplus.New(ds, dev, budget, cache, rec, pygOptions(cfg))
		if err != nil {
			return nil, nil, 0, nil, err
		}
		return func(ctx context.Context, e int) (EpochStats, error) {
			r, err := sysm.TrainEpoch(ctx, e)
			return EpochStats{Breakdown: r.Breakdown, Loss: r.Loss, Acc: r.Acc}, err
		}, sysm.Close, 0, sysm.Model(), nil

	case Ginex:
		sysm, err := ginex.New(ds, dev, budget, rec, ginexOptions(cfg, ds))
		if err != nil {
			return nil, nil, 0, nil, err
		}
		return func(_ context.Context, e int) (EpochStats, error) {
			r, err := sysm.TrainEpoch(e)
			return EpochStats{Breakdown: r.Breakdown, Loss: r.Loss, Acc: r.Acc}, err
		}, sysm.Close, 0, sysm.Model(), nil

	case Marius:
		sysm, err := marius.New(ds, dev, budget, rec, mariusOptions(cfg))
		if err != nil {
			return nil, nil, 0, nil, err
		}
		return func(_ context.Context, e int) (EpochStats, error) {
			r, err := sysm.TrainEpoch(e)
			return EpochStats{Breakdown: r.Breakdown, Loss: r.Loss, Acc: r.Acc}, err
		}, sysm.Close, 0, sysm.Model(), nil
	}
	return nil, nil, 0, nil, fmt.Errorf("trainsim: unknown system %v", sys)
}

// SampleOnly measures one epoch of the sample stage alone (Fig. 2's
// "-only" bars) for systems that support it; ctx stops GNNDrive's samplers
// between batches (the baselines' sample-only loops run to completion).
func SampleOnly(ctx context.Context, cfg Config, sys SystemKind) (time.Duration, error) {
	cfg.fill()
	ds, err := buildDataset(cfg)
	if err != nil {
		return 0, err
	}
	budget := hostmem.NewBudget(int64(cfg.HostMemoryGB) * GB)
	cache := pagecache.New(ds.Dev, budget)
	rec := metrics.NewRecorder()
	dev := newDevice(sys, cfg)
	defer dev.Close()

	switch sys {
	case GNNDriveGPU, GNNDriveCPU:
		eng, err := core.New(ds, dev, budget, cache, rec, cfg.EngineOptions())
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		return eng.SampleOnly(ctx, 0)
	case PyGPlus:
		s, err := pygplus.New(ds, dev, budget, cache, rec, pygOptions(cfg))
		if err != nil {
			return 0, err
		}
		defer s.Close()
		return s.SampleOnly(0)
	case Ginex:
		s, err := ginex.New(ds, dev, budget, rec, ginexOptions(cfg, ds))
		if err != nil {
			return 0, err
		}
		defer s.Close()
		return s.SampleOnly(0)
	}
	return 0, fmt.Errorf("trainsim: %v has no sample-only mode", sys)
}

// SampleDuringAll measures the summed sample-stage time while the whole
// pipeline runs (Fig. 2's "-all" bars).
func SampleDuringAll(ctx context.Context, cfg Config, sys SystemKind) (time.Duration, error) {
	res, err := RunCtx(ctx, cfg, sys, RunOptions{Epochs: 1})
	if err != nil {
		return 0, err
	}
	return res.Epochs[0].Sample, nil
}

// RunParallel trains GNNDrive with data parallelism over `workers`
// devices of the given config (Fig. 13) and returns the epoch wall time.
func RunParallel(ctx context.Context, cfg Config, workers int, devCfg device.Config, epochs int) (time.Duration, error) {
	cfg.fill()
	ds, err := buildDataset(cfg)
	if err != nil {
		return 0, err
	}
	budget := hostmem.NewBudget(int64(cfg.HostMemoryGB) * GB)
	cache := pagecache.New(ds.Dev, budget)
	rec := metrics.NewRecorder()

	devCfg.TimeScale = cfg.Scale
	devices := make([]*device.Device, workers)
	for i := range devices {
		devices[i] = device.New(devCfg)
		defer devices[i].Close()
	}
	pcfg := core.DefaultParallelConfig()
	pcfg.TimeScale = cfg.Scale
	p, err := core.NewParallel(ds, devices, budget, cache, rec, cfg.EngineOptions(), pcfg)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	if epochs == 0 {
		epochs = 1
	}
	var sum time.Duration
	for e := 0; e < epochs; e++ {
		total, _, err := p.TrainEpochCtx(ctx, e)
		if err != nil {
			return 0, err
		}
		sum += total
	}
	return sum / time.Duration(epochs), nil
}
