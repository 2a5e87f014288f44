package main

import (
	"context"
	"fmt"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/layout"
	"gnndrive/internal/metrics"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/file"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/linuring"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/trace"
	"gnndrive/internal/trainsim"
)

// rigData is the benchmark's own build of a workload's dataset — what
// trainsim builds internally — with probes at the storage seams trainsim
// does not expose: under the integrity wrapper (inner: the raw backend)
// and over it (outer). Without an integrity layer only inner exists.
type rigData struct {
	cfg          trainsim.Config
	ds           *graph.Dataset
	inner, outer *backendProbe
}

// top is the probe the engine's reads pass first.
func (d *rigData) top() *backendProbe {
	if d.outer != nil {
		return d.outer
	}
	return d.inner
}

func (d *rigData) probing(on bool) {
	d.inner.on.Store(on)
	if d.outer != nil {
		d.outer.on.Store(on)
	}
}

func (d *rigData) close() { d.ds.Dev.Close() }

// buildRig builds cfg's dataset the way trainsim.buildDataset does:
// backend, optional integrity wrapper, generation, optional packing.
func buildRig(cfg trainsim.Config) (*rigData, error) {
	spec := cfg.Dataset
	if cfg.Dim != 0 {
		spec.Dim = cfg.Dim
	}
	capacity := spec.SizeBytes() + trainsim.ScratchBytes
	var (
		dev storage.Backend
		err error
	)
	switch cfg.Backend {
	case "", "sim":
		scfg := sim.DefaultConfig()
		scfg.TimeScale = cfg.Scale
		dev = sim.New(capacity, scfg)
	case "file":
		dev, err = file.Create(cfg.DataFile, capacity, file.Options{})
	case "linuring":
		dev, err = linuring.FallbackFactory(cfg.DataFile, linuring.Options{Logf: cfg.Logf})(capacity)
	default:
		err = fmt.Errorf("unknown backend %q", cfg.Backend)
	}
	if err != nil {
		return nil, err
	}
	d := &rigData{cfg: cfg, inner: &backendProbe{}}
	dev = decorate(dev, d.inner)
	if cfg.Integrity != nil {
		wrapped, err := integrity.Wrap(dev, *cfg.Integrity)
		if err != nil {
			dev.Close()
			return nil, err
		}
		d.outer = &backendProbe{}
		dev = decorate(wrapped, d.outer)
	}
	ds, err := gen.Build(spec, dev, 0)
	if err == nil && cfg.Layout == "packed" {
		err = packRig(ds, cfg)
	}
	if err != nil {
		dev.Close()
		return nil, err
	}
	if cfg.TrainLimit > 0 && cfg.TrainLimit < len(ds.TrainIdx) {
		ds.TrainIdx = ds.TrainIdx[:cfg.TrainLimit]
	}
	d.ds = ds
	return d, nil
}

// packRig is trainsim.packDataset: learn first-touch order from the
// epoch-0 sample trace and permute the feature region in place.
func packRig(ds *graph.Dataset, cfg trainsim.Config) error {
	o := baseOptions(cfg)
	tr, err := gen.SampleTrace(ds, o.BatchSize, o.Fanouts, cfg.Seed, true)
	if err != nil {
		return err
	}
	p, err := layout.PackInPlace(ds.Dev, ds.Layout.FeaturesOff, int(ds.FeatBytes()),
		ds.NumNodes, tr, layout.PackOptions{})
	if err != nil {
		return err
	}
	ds.Addr = p
	return nil
}

// baseOptions maps a harness config onto engine options the way
// trainsim.buildSystem does, leaving the feature-buffer size to
// engineOptions.
func baseOptions(cfg trainsim.Config) core.Options {
	o := core.DefaultOptions(cfg.Model)
	if cfg.BatchSize != 0 {
		o.BatchSize = cfg.BatchSize
	}
	if len(cfg.Fanouts) != 0 {
		o.Fanouts = cfg.Fanouts
	}
	o.RealTrain = cfg.RealTrain
	o.Seed = cfg.Seed
	o.InOrder = cfg.InOrder
	o.CheckpointDir = cfg.CheckpointDir
	o.CheckpointEverySteps = cfg.CheckpointEverySteps
	o.IOGate = cfg.IOGate
	if cfg.Hidden != 0 {
		o.Hidden = cfg.Hidden
	}
	if o.InOrder {
		o.Samplers, o.Extractors = 1, 1
	}
	return o
}

func engineOptions(cfg trainsim.Config, ds *graph.Dataset, dev *device.Device) (core.Options, error) {
	o := baseOptions(cfg)
	switch {
	case cfg.FeatureSlots > 0:
		o.FeatureSlots = cfg.FeatureSlots
	case cfg.FeatureBufferX > 0:
		mb, err := sample.EstimateMaxBatchNodes(ds, o.BatchSize, o.Fanouts, 4, o.Seed)
		if err != nil {
			return o, err
		}
		slots := int(cfg.FeatureBufferX * float64(o.Extractors*mb))
		if lim := int(dev.MemBytes() * 9 / 10 / ds.FeatBytes()); slots > lim {
			slots = lim
		}
		if slots > int(ds.NumNodes) {
			slots = int(ds.NumNodes)
		}
		o.FeatureSlots = slots
	}
	return o, nil
}

func rigDevice(cfg trainsim.Config) *device.Device {
	dcfg := device.RTX3090()
	dcfg.TimeScale = cfg.Scale
	if cfg.RealTrain {
		dcfg.Throughput = 0
	}
	return device.New(dcfg)
}

func hostBudget(cfg trainsim.Config) *hostmem.Budget {
	gb := cfg.HostMemoryGB
	if gb == 0 {
		gb = 32
	}
	return hostmem.NewBudget(int64(gb) * trainsim.GB)
}

// stagingFor builds the staging pool the engine would build for itself
// (core.finishSetup's sizing). The rig owns it so a probe can watch it.
func stagingFor(budget *hostmem.Budget, ds *graph.Dataset, o core.Options) (*core.Staging, error) {
	slotBytes := o.MaxJointRead
	if fb := int(ds.FeatBytes()); slotBytes < fb {
		slotBytes = (fb + 511) / 512 * 512
	}
	return core.NewStaging(budget, o.Extractors*o.RingDepth, slotBytes)
}

// engineRound is one fresh engine over a rig's dataset — a round.
type engineRound struct {
	eng     *core.Engine
	dev     *device.Device
	cache   *pagecache.Cache
	staging *core.Staging
}

func (d *rigData) newRound(tracer *trace.Tracer) (*engineRound, error) {
	budget := hostBudget(d.cfg)
	dev := rigDevice(d.cfg)
	o, err := engineOptions(d.cfg, d.ds, dev)
	if err != nil {
		dev.Close()
		return nil, err
	}
	o.Tracer = tracer
	staging, err := stagingFor(budget, d.ds, o)
	if err != nil {
		dev.Close()
		return nil, err
	}
	o.SharedStaging = staging
	cache := pagecache.New(d.ds.Dev, budget)
	eng, err := core.New(d.ds, dev, budget, cache, metrics.NewRecorder(), o)
	if err != nil {
		staging.Close()
		dev.Close()
		return nil, err
	}
	return &engineRound{eng: eng, dev: dev, cache: cache, staging: staging}, nil
}

func (r *engineRound) close() {
	r.eng.Close()
	r.staging.Close()
	r.dev.Close()
}

func (r *engineRound) epoch(ctx context.Context, e int) (core.EpochResult, error) {
	return r.eng.TrainEpochFrom(ctx, e, 0)
}
