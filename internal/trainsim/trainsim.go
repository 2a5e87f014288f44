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
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

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
	// the one a multi-tenant daemon builds for the job at admission —
	// that the GNNDrive engine stages through instead of allocating its
	// own (see core.Options.SharedStaging). The caller keeps ownership:
	// the run never closes it.
	SharedStaging *core.Staging
	// IOGate, when non-nil, rations the engine's extract-read
	// submissions against a shared token budget (see core.IOGate).
	IOGate core.IOGate
	// Rec, when non-nil, substitutes for the run's internally allocated
	// metrics recorder so a supervisor can keep per-job counters.
	Rec *metrics.Recorder
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
	// vector placement, and the engine reads through the packed
	// addresser. Packed cells cache separately per (model, batch,
	// fanouts, seed) because the trace depends on them.
	Layout string
	// LoadFile, when non-empty, loads this .gnnd container instead of
	// generating a dataset; Dataset/Dim/Layout are ignored. The
	// container's header decides the layout, exactly like cmd/gnndrive
	// -load, and with Integrity the run verifies against the checksums
	// the container saved.
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
	// Logf, when non-nil, receives the run's diagnostics: the linuring
	// backend's one-line fallback notice when io_uring is unavailable
	// and the file worker pool serves instead, a loaded container with no
	// checksums to verify against, and GNNDrive's failed checkpoint saves (which
	// go to stdout when Logf is nil).
	Logf func(format string, args ...any)

	// Faults, when non-nil, attaches a storage fault-injection schedule to
	// the dataset device for the duration of the run (detached afterwards:
	// the device is cached across runs). GNNDrive's extract path retries
	// transient errors; the baselines surface them.
	Faults *faults.Config

	// Integrity, when non-nil, wraps the dataset backend in the checksum
	// verification layer (storage/integrity): every read is verified
	// against per-block CRC32C, mismatches are repaired by raw re-reads,
	// and persistently bad blocks are quarantined. A generated dataset is
	// checksummed as it is written; a loaded one adopts the sums its
	// container saved, so bytes corrupted on disk fail verification.
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

// maxDim bounds the feature dimension a Config may ask for: 256 KiB a
// vector, far above any dataset's, and small enough that no byte size
// derived from it overflows.
const maxDim = 1 << 16

// maxScale bounds the time stretch a Config may ask for: a modeled
// operation of an hour at scale 1 (no single read, transfer or step
// comes near that) still fits time.Duration's 292 years at this scale,
// while 1e300 or +Inf would overflow it and the run would model no time.
const maxScale = 1e6

// check rejects a Config no run can honour: a negative size, count or
// scale, a non-finite float, a dimension above maxDim, a scale above
// maxScale, a non-positive fanout, or an unknown backend or layout name.
// It holds the only lists of backend and layout names. Every run checks
// its Config where it starts (newEnv); JobSpec.Config and PackDataset
// check theirs too. A negative StallDeadline is allowed: it means off.
func (c Config) check() error {
	for _, s := range []struct {
		name string
		v    float64
	}{
		{"dim", float64(c.Dim)}, {"host memory", float64(c.HostMemoryGB)},
		{"batch size", float64(c.BatchSize)}, {"hidden", float64(c.Hidden)},
		{"train limit", float64(c.TrainLimit)}, {"scale", c.Scale},
		{"feature buffer multiple", c.FeatureBufferX}, {"feature slots", float64(c.FeatureSlots)},
		{"checkpoint cadence", float64(c.CheckpointEverySteps)},
	} {
		if s.v < 0 || math.IsNaN(s.v) || math.IsInf(s.v, 0) {
			return fmt.Errorf("trainsim: %s is %v, want finite and ≥ 0", s.name, s.v)
		}
	}
	if c.Dim > maxDim {
		return fmt.Errorf("trainsim: dim %d above %d", c.Dim, maxDim)
	}
	if c.Scale > maxScale {
		return fmt.Errorf("trainsim: scale %g above %g", c.Scale, maxScale)
	}
	for _, f := range c.Fanouts {
		if f <= 0 {
			return fmt.Errorf("trainsim: fanout %d must be positive", f)
		}
	}
	switch c.Backend {
	case "", "sim", "file", "linuring":
	default:
		return fmt.Errorf("trainsim: unknown backend %q (want sim, file, or linuring)", c.Backend)
	}
	switch c.Layout {
	case "", "strided", "packed":
	default:
		return fmt.Errorf("trainsim: unknown layout %q (want strided or packed)", c.Layout)
	}
	return nil
}

// EpochStats is the per-epoch report every system returns: its own stage
// times and counters (the baselines leave the fault and integrity
// counters zero) and the training outcome.
type EpochStats = core.EpochResult

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
	return r.avg(func(e EpochStats) time.Duration { return e.Total })
}

// AvgPrep returns the mean data-preparation time per epoch.
func (r Result) AvgPrep() time.Duration {
	return r.avg(func(e EpochStats) time.Duration { return e.Prep })
}

func (r Result) avg(of func(EpochStats) time.Duration) time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, e := range r.Epochs {
		sum += of(e)
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

// backendFactory builds the storage factory for one dataset cell of a
// checked config, wrapping it in the integrity layer when the config asks
// for one. name and dim label auto-created backing files. It returns the
// factory and the temp path it will create (file backends with no explicit
// DataFile), so DropDatasets can remove it. Returning a factory instead of
// a backend lets graph.Load size the backend itself from the container
// header.
func backendFactory(cfg Config, name string, dim int) (f storage.Factory, temp string) {
	path := cfg.DataFile
	if path == "" && cfg.onFile() {
		path = filepath.Join(os.TempDir(), fmt.Sprintf("gnndrive-%s-%d-%g.img", name, dim, cfg.Scale))
		temp = path
	}
	switch cfg.Backend {
	case "file":
		f = file.Factory(path, file.Options{})
	case "linuring":
		// FallbackFactory degrades to the file worker pool where the
		// kernel refuses io_uring, so a "linuring" config runs anywhere.
		f = linuring.FallbackFactory(path, linuring.Options{Logf: cfg.Logf})
	default: // "" or "sim"
		scfg := sim.DefaultConfig()
		scfg.TimeScale = cfg.Scale
		f = sim.Factory(scfg)
	}
	if cfg.Integrity != nil {
		f = integrity.WrapFactory(f, *cfg.Integrity)
	}
	return f, temp
}

// onFile reports whether cfg's backend serves a real file ("file" or
// "linuring") rather than the modeled SSD.
func (c Config) onFile() bool { return c.Backend == "file" || c.Backend == "linuring" }

// OpenBackend opens the backend cfg names (Backend, DataFile, Scale, Logf,
// Integrity) as a bare size-byte device with no dataset on it: the device
// Fig. B.1's I/O micro-benchmark reads. A real-file backend with no
// DataFile gets a fresh temp file. The returned close closes the backend
// and removes that temp file.
func OpenBackend(cfg Config, size int64) (storage.Backend, func(), error) {
	cfg.fill()
	if err := cfg.check(); err != nil {
		return nil, nil, err
	}
	remove := func() {}
	if cfg.DataFile == "" && cfg.onFile() {
		tf, err := os.CreateTemp("", "gnndrive-backend-*.img")
		if err != nil {
			return nil, nil, err
		}
		tf.Close()
		cfg.DataFile = tf.Name()
		remove = func() { os.Remove(tf.Name()) }
	}
	f, _ := backendFactory(cfg, "", 0)
	dev, err := f(size)
	if err != nil {
		remove()
		return nil, nil, err
	}
	return dev, func() { dev.Close(); remove() }, nil
}

// integrityKey puts the integrity switch into the dataset cache key, so a
// verified cell never shares a backend with an unverified one. Logf is the
// only option and does not change behavior.
func integrityKey(o *integrity.Options) string {
	if o == nil {
		return "none"
	}
	return "verify"
}

// layoutKey flattens the layout choice into the dataset cache key. A
// packed cell's bytes depend on the epoch-0 trace, which depends on the
// training configuration, so those knobs join the key.
func layoutKey(cfg Config) string {
	if cfg.Layout != "packed" {
		return "strided"
	}
	o := cfg.EngineOptions()
	return fmt.Sprintf("%s/%v/%d/%v/%d", cfg.Layout, cfg.Model, o.BatchSize, o.Fanouts, cfg.Seed)
}

// spec is the dataset spec with the Dim override applied.
func (c Config) spec() gen.Spec {
	s := c.Dataset
	if c.Dim != 0 {
		s.Dim = c.Dim
	}
	return s
}

// cacheKey identifies one dataset cell. Callback fields stay out on
// purpose: they don't change the bytes on the device.
func cacheKey(cfg Config) string {
	spec := cfg.spec()
	if cfg.LoadFile != "" {
		return fmt.Sprintf("load/%s/%g/%s/%s/%s", cfg.LoadFile, cfg.Scale,
			cfg.Backend, cfg.DataFile, integrityKey(cfg.Integrity))
	}
	return fmt.Sprintf("%s/%d/%g/%s/%s/%s/%s", spec.Name, spec.Dim, cfg.Scale,
		cfg.Backend, cfg.DataFile, integrityKey(cfg.Integrity), layoutKey(cfg))
}

// buildDataset returns the cached dataset for the config.
func buildDataset(cfg Config) (*graph.Dataset, error) {
	spec, key := cfg.spec(), cacheKey(cfg)
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds, nil
	}
	name, dim := spec.Name, spec.Dim
	if cfg.LoadFile != "" {
		name, dim = "load-"+filepath.Base(cfg.LoadFile), 0
	}
	f, temp := backendFactory(cfg, name, dim)
	ds, err := loadOrBuild(cfg, f)
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

// loadOrBuild makes cfg's dataset on a backend from f: it loads
// cfg.LoadFile, or generates the spec and packs it when the layout asks.
// On error the backend is closed.
//
// A loaded container's integrity wrapper verifies against the checksums
// the container saved (cmd/datagen -out saves them). graph.Load filled
// the image through the wrapper, which took its sums from the loaded
// bytes; adoption replaces them, so a byte corrupted on disk since the
// container was written fails verification instead of training. Without
// saved checksums the loaded bytes stay the reference, with a warning.
func loadOrBuild(cfg Config, f storage.Factory) (*graph.Dataset, error) {
	if cfg.LoadFile != "" {
		ds, table, err := graph.Load(cfg.LoadFile, f, ScratchBytes)
		if err != nil {
			return nil, err
		}
		ib, ok := ds.Dev.(*integrity.Backend)
		if ok && table == nil && cfg.Logf != nil {
			cfg.Logf("trainsim: %s saved no checksums; verifying against the loaded bytes", cfg.LoadFile)
		}
		if ok && table != nil {
			if err := ib.AdoptChecksums(*table); err != nil {
				ds.Dev.Close()
				return nil, err
			}
		}
		return ds, nil
	}
	spec := cfg.spec()
	dev, err := f(spec.SizeBytes() + ScratchBytes)
	if err != nil {
		return nil, err
	}
	ds, err := gen.Build(spec, dev, 0)
	if err == nil && cfg.Layout == "packed" {
		err = PackDataset(ds, cfg)
	}
	if err != nil {
		dev.Close()
		return nil, err
	}
	return ds, nil
}

// PackDataset runs the offline packer on a freshly generated dataset:
// sample the epoch-0 trace with the exact seeds a run of cfg will use
// (its Model, BatchSize, Fanouts and Seed decide them), permute the
// feature region in place, and install the packed addresser. It is the
// only packer: Layout "packed" and cmd/datagen -layout packed both call
// it, so an offline pack with a run's model, batch and seed places every
// node where the run's own packing would.
func PackDataset(ds *graph.Dataset, cfg Config) error {
	if err := cfg.check(); err != nil {
		return err
	}
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
	key := cacheKey(cfg)
	dsMu.Lock()
	defer dsMu.Unlock()
	if _, ok := dsCache[key]; ok {
		evict(key)
	}
}

// DropDatasets clears the dataset cache (frees memory between sweeps) and
// removes any auto-created backing files.
func DropDatasets() {
	dsMu.Lock()
	defer dsMu.Unlock()
	for k := range dsCache {
		evict(k)
	}
}

// evict closes the cached cell key and removes its auto-created backing
// file. dsMu must be held.
func evict(key string) {
	dsCache[key].Dev.Close()
	if path, ok := dsTemp[key]; ok {
		os.Remove(path)
		delete(dsTemp, key)
	}
	delete(dsCache, key)
}

// env is what a run builds its system over: the filled config, the cached
// dataset with its training split cut to TrainLimit and the config's fault
// injector attached, a fresh host budget and page cache, the recorder, and
// the training devices.
type env struct {
	cfg    Config
	ds     *graph.Dataset
	inj    *faults.Injector
	budget *hostmem.Budget
	cache  *pagecache.Cache
	rec    *metrics.Recorder
	devs   []*device.Device
	dev    *device.Device // devs[0]
	// firstEpoch is where a resumed run continues; its build sets it.
	firstEpoch int
}

// newEnv builds cfg's environment with one device per entry of devs, each
// at the run's time scale. Callers close it.
func newEnv(cfg Config, devs ...device.Config) (*env, error) {
	cfg.fill()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	ds, err := buildDataset(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.TrainLimit > 0 && cfg.TrainLimit < len(ds.TrainIdx) {
		trimmed := *ds
		trimmed.TrainIdx = ds.TrainIdx[:cfg.TrainLimit]
		ds = &trimmed
	}
	budget := hostmem.NewBudget(int64(cfg.HostMemoryGB) * GB)
	e := &env{cfg: cfg, ds: ds, budget: budget, cache: pagecache.New(ds.Dev, budget), rec: cfg.Rec}
	if e.rec == nil {
		e.rec = metrics.NewRecorder()
	}
	if cfg.Faults != nil {
		e.inj = faults.NewInjector(*cfg.Faults)
		ds.Dev.SetInjector(e.inj)
	}
	for _, d := range devs {
		d.TimeScale = cfg.Scale
		if cfg.RealTrain {
			// Real math takes real time; don't add modeled compute on top.
			d.Throughput = 0
		}
		e.devs = append(e.devs, device.New(d))
	}
	if len(e.devs) > 0 {
		e.dev = e.devs[0]
	}
	return e, nil
}

// knobs are the model and batch settings every system of the run shares.
func (e *env) knobs() core.Knobs { return e.cfg.EngineOptions().Knobs }

// close releases the devices and detaches the fault injector (the dataset
// is cached across runs), returning what it injected: a chaos run that
// injected nothing proves nothing.
func (e *env) close() faults.Counts {
	for _, d := range e.devs {
		d.Close()
	}
	if e.inj == nil {
		return faults.Counts{}
	}
	e.ds.Dev.SetInjector(nil)
	return e.inj.Counts()
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
func RunCtx(ctx context.Context, cfg Config, kind SystemKind, opts RunOptions) (res Result, err error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if opts.Epochs == 0 {
		opts.Epochs = 1
	}
	row, err := kind.row()
	if err != nil {
		return Result{}, err
	}
	e, err := newEnv(cfg, row.device())
	if err != nil {
		return Result{}, err
	}
	res = Result{System: kind}
	// Every return path, cancellation included, reports how much chaos
	// was actually injected.
	defer func() { res.FaultCounts = e.close() }()
	if opts.SampleUtil > 0 {
		// Normalizers: the paper's machine runs many worker threads; we
		// normalize by the stage worker counts of the busiest system.
		sampler := e.rec.StartSampler(opts.SampleUtil, 6, 6)
		defer func() { res.Windows = sampler.Stop() }()
	}
	sys, err := row.build(e)
	if err != nil {
		return res, err
	}
	defer sys.Close()

	// A resumed run continues from its checkpoint cursor: epochs before
	// firstEpoch are already done and are not re-run.
	for ep := e.firstEpoch; ep < opts.Epochs; ep++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		st, err := sys.TrainEpoch(ctx, ep)
		if err != nil {
			return res, err
		}
		res.Epochs = append(res.Epochs, st)
		if e.cfg.OnEpoch != nil {
			e.cfg.OnEpoch(ep, st)
		}
		if opts.EvalVal {
			// The run's own model, so concurrent runs in one process
			// never score each other's weights.
			acc := 0.0
			if m := sys.Model(); m != nil {
				if acc, err = core.EvaluateModel(e.ds, m, e.cfg.EngineOptions().Fanouts, e.ds.ValIdx, e.cfg.Seed); err != nil {
					return res, fmt.Errorf("trainsim: validation: %w", err)
				}
			}
			res.ValAcc = append(res.ValAcc, acc)
		}
	}
	return res, nil
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

// SampleOnly measures one epoch of the sample stage alone (Fig. 2's
// "-only" bars) for systems that have a sample-only mode, over the same
// environment RunCtx builds; ctx stops the samplers between batches.
func SampleOnly(ctx context.Context, cfg Config, kind SystemKind) (time.Duration, error) {
	row, err := kind.row()
	if err != nil {
		return 0, err
	}
	e, err := newEnv(cfg, row.device())
	if err != nil {
		return 0, err
	}
	defer e.close()
	sys, err := row.build(e)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	so, ok := sys.(interface {
		SampleOnly(context.Context, int) (time.Duration, error)
	})
	if !ok {
		return 0, fmt.Errorf("trainsim: %v has no sample-only mode", kind)
	}
	return so.SampleOnly(ctx, 0)
}

// RunParallel trains GNNDrive with data parallelism over `workers`
// devices of the given config (Fig. 13), over the same environment RunCtx
// builds, and returns the epoch wall time. Its workers' buffers are
// auto-sized, so a FeatureBufferX it would not apply is an error.
func RunParallel(ctx context.Context, cfg Config, workers int, devCfg device.Config, epochs int) (time.Duration, error) {
	if cfg.FeatureBufferX != 0 {
		return 0, fmt.Errorf("trainsim: RunParallel does not apply Config.FeatureBufferX (%g)", cfg.FeatureBufferX)
	}
	devs := make([]device.Config, workers)
	for i := range devs {
		devs[i] = devCfg
	}
	e, err := newEnv(cfg, devs...)
	if err != nil {
		return 0, err
	}
	defer e.close()
	p, err := core.NewParallel(e.ds, e.devs, e.budget, e.cache, e.rec, e.cfg.EngineOptions())
	if err != nil {
		return 0, err
	}
	defer p.Close()
	epochs = max(epochs, 1)
	var sum time.Duration
	for ep := 0; ep < epochs; ep++ {
		total, _, err := p.TrainEpochCtx(ctx, ep)
		if err != nil {
			return 0, err
		}
		sum += total
	}
	return sum / time.Duration(epochs), nil
}
