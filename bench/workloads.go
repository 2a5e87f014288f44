package main

import (
	"fmt"
	"math"

	"gnndrive/internal/core"
	"gnndrive/internal/gen"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/trainsim"
)

// defaultSeconds is the measured window the round counts below are sized
// for on the 2-core sandbox; -seconds scales the round count from it.
const defaultSeconds = 20

// setupReps is how many times a run sets up from scratch; setup_s is the
// median.
const setupReps = 3

// workload is one benchmark workload: a closed loop of whole training
// epochs. A round is one fresh engine (cold feature buffer and page
// cache) over the already-built dataset running 1 cold + steady epochs.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why            string
	rounds, steady int
	// ref is the reference-kernel mix the workload's epoch timings are
	// divided by (refkernel.go): the mix that resembles its bottleneck.
	// refNone leaves them as wall time, which is right where time is
	// modeled device latency (sleeps do not slow down with the machine) and
	// where engines overlap so that no reading belongs to one epoch.
	ref refMix
	// driver is false for a workload that BENCHMARK.json does not list:
	// still run by name and by the all-workload mode, never gated.
	driver bool
	// config resolves the training config for a seed; data paths are
	// filled in by the runner. serve_tenants builds a JobSpec instead.
	config func(seed uint64, ds gen.Spec) trainsim.Config
	serve  bool
}

var workloads = []workload{
	{
		name:   "sim_strided",
		why:    "extract-bound on modeled SATA latency at the minimum feature buffer: time follows backend reads and overlap, not CPU",
		rounds: 3, steady: 2, ref: refNone, driver: true,
		config: func(seed uint64, ds gen.Spec) trainsim.Config {
			return trainsim.Config{Dataset: ds, Backend: "sim", Scale: 0.5,
				FeatureBufferX: 1, TrainLimit: 4500, Seed: seed}
		},
	},
	{
		name:   "file_packed_verify",
		why:    "extract-bound on software: AddrPlanner coalescing over a packed dim-100 layout, staging copies, CRC verify on every read, file worker pool",
		rounds: 7, steady: 2, ref: refIOPath, driver: true,
		config: func(seed uint64, ds gen.Spec) trainsim.Config {
			return packedVerify(seed, ds, "file", 0)
		},
	},
	{
		name:   "uring_packed_verify",
		why:    "the same on io_uring: batched SQE submission and registered buffers; on memory files every read is punted to a kernel worker thread",
		rounds: 5, steady: 2, ref: refIOPath,
		config: func(seed uint64, ds gen.Spec) trainsim.Config {
			return packedVerify(seed, ds, "linuring", 3500)
		},
	},
	{
		name:   "file_lowmem",
		why:    "sample-bound: topology exceeds the 8 scaled-GB page-cache budget, so neighbor reads fault through pagecache to the file backend",
		rounds: 7, steady: 2, ref: refIOPath, driver: true,
		config: func(seed uint64, ds gen.Spec) trainsim.Config {
			return trainsim.Config{Dataset: ds, Backend: "file", HostMemoryGB: 8,
				Scale: 0.01, Seed: seed}
		},
	},
	{
		name:   "real_inorder_ckpt",
		why:    "train-bound real float32 math in order with checkpoint writes beside reads: bypasses every read-path change, and its step losses are the bit-identity oracle",
		rounds: 6, steady: 3, ref: refCompute, driver: true,
		config: func(seed uint64, ds gen.Spec) trainsim.Config {
			return trainsim.Config{Dataset: ds, Backend: "file", RealTrain: true, InOrder: true,
				Hidden: 64, TrainLimit: 300, CheckpointEverySteps: 3, Scale: 0.01, Seed: seed}
		},
	},
	{
		name:   "serve_tenants",
		why:    "nproc gnnserved tenants contend for CPU, carved staging quotas and half their summed I/O tokens: the only workload with engines competing",
		rounds: 2, steady: 5, ref: refNone,
		serve: true,
	},
}

// packedVerify is the software-extract-bound configuration: a packed
// dim-100 layout (400 B vectors, so reads are not sector multiples),
// integrity verification on, the minimum feature buffer, and modeled
// GPU time shrunk out of the way. Two workloads run it, one per real
// backend.
func packedVerify(seed uint64, ds gen.Spec, backend string, trainLimit int) trainsim.Config {
	return trainsim.Config{Dataset: ds, Dim: 100, Backend: backend, Layout: "packed",
		Integrity: &integrity.Options{}, FeatureBufferX: 1, TrainLimit: trainLimit, Scale: 0.01, Seed: seed}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the workload with its round count scaled from
// defaultSeconds to seconds. Run length stays a count of epochs, never a
// wall-clock deadline, so the same flags always train the same batches.
func (w workload) scaled(seconds int, smoke bool) workload {
	if smoke {
		w.rounds, w.steady = 1, 1
		return w
	}
	r := int(math.Round(float64(w.rounds) * float64(seconds) / defaultSeconds))
	if r < 1 {
		r = 1
	}
	w.rounds = r
	return w
}

// dataset is Papers (111k nodes, 222 batches an epoch at batch 50), or
// tiny in smoke mode.
func datasetFor(smoke bool) gen.Spec {
	if smoke {
		return gen.Tiny()
	}
	return gen.Papers()
}

// trainNodes is how many target nodes an epoch of cfg trains.
func trainNodes(cfg trainsim.Config) int {
	n := int(float64(cfg.Dataset.Nodes) * cfg.Dataset.TrainFrac)
	if cfg.TrainLimit > 0 && cfg.TrainLimit < n {
		n = cfg.TrainLimit
	}
	return n
}

// batchesPerEpoch is ceil(train nodes / batch size): what every epoch
// must train for the run to be correct.
func batchesPerEpoch(cfg trainsim.Config) int {
	batch := cfg.BatchSize
	if batch == 0 {
		batch = core.DefaultOptions(cfg.Model).BatchSize
	}
	return (trainNodes(cfg) + batch - 1) / batch
}

// Tenant job shape of serve_tenants. The daemon forces RealTrain and
// InOrder on every job.
const (
	tenantHidden     = 16
	tenantTrainLimit = 1000
)

func tenantSpec(seed uint64, tenant int, epochs int, smoke bool) trainsim.JobSpec {
	s := trainsim.JobSpec{
		Dataset: datasetFor(smoke).Name, System: "gnndrive-gpu", Epochs: epochs,
		Backend: "file", Hidden: tenantHidden, TrainLimit: tenantTrainLimit,
		Scale: 0.01, Seed: seed + uint64(tenant),
	}
	if smoke {
		s.TrainLimit = 200
	}
	return s
}

// resolvedConfig is the part of a trainsim.Config a result records.
type resolvedConfig struct {
	Dataset              string  `json:"dataset"`
	Nodes                int     `json:"nodes"`
	Dim                  int     `json:"dim"`
	Backend              string  `json:"backend"`
	Layout               string  `json:"layout"`
	Integrity            bool    `json:"integrity"`
	HostMemoryGB         int     `json:"host_memory_gb"`
	Scale                float64 `json:"scale"`
	FeatureBufferX       float64 `json:"feature_buffer_x,omitempty"`
	RealTrain            bool    `json:"real_train,omitempty"`
	InOrder              bool    `json:"in_order,omitempty"`
	Hidden               int     `json:"hidden,omitempty"`
	TrainLimit           int     `json:"train_limit,omitempty"`
	CheckpointEverySteps int     `json:"checkpoint_every_steps,omitempty"`
	Seed                 uint64  `json:"seed"`
	RefMix               string  `json:"ref_mix"`
	BatchesPerEpoch      int     `json:"batches_per_epoch"`
	Rounds               int     `json:"rounds"`
	EpochsPerRound       int     `json:"epochs_per_round"`
	Tenants              int     `json:"tenants,omitempty"`
}

func resolve(cfg trainsim.Config, w workload) resolvedConfig {
	dim := cfg.Dataset.Dim
	if cfg.Dim != 0 {
		dim = cfg.Dim
	}
	layout := cfg.Layout
	if layout == "" {
		layout = "strided"
	}
	host := cfg.HostMemoryGB
	if host == 0 {
		host = 32
	}
	return resolvedConfig{
		Dataset: cfg.Dataset.Name, Nodes: cfg.Dataset.Nodes, Dim: dim, Backend: cfg.Backend,
		Layout: layout, Integrity: cfg.Integrity != nil, HostMemoryGB: host, Scale: cfg.Scale,
		FeatureBufferX: cfg.FeatureBufferX, RealTrain: cfg.RealTrain, InOrder: cfg.InOrder,
		Hidden: cfg.Hidden, TrainLimit: cfg.TrainLimit,
		CheckpointEverySteps: cfg.CheckpointEverySteps, Seed: cfg.Seed, RefMix: w.ref.name,
		BatchesPerEpoch: batchesPerEpoch(cfg), Rounds: w.rounds, EpochsPerRound: 1 + w.steady,
	}
}
