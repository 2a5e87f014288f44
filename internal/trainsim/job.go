package trainsim

import (
	"fmt"
	"time"

	"gnndrive/internal/gen"
)

// JobSpec is the JSON-shaped description of one training job as submitted
// to the serve daemon (POST /jobs). It names a dataset and system instead
// of embedding structs, carries only scalar knobs, and round-trips through
// encoding/json unchanged — the daemon persists it verbatim in the job
// manifest so a restarted daemon can re-admit the identical job.
type JobSpec struct {
	// Dataset names a built-in scaled dataset: tiny, papers100m-s,
	// twitter-s, friendster-s, or mag240m-s.
	Dataset string `json:"dataset"`
	// System names the training system; see SystemByName. The daemon
	// only admits GNNDrive systems (resumable); the harness accepts all.
	System string `json:"system"`
	// Epochs to train (default 1).
	Epochs int `json:"epochs"`

	Dim        int     `json:"dim,omitempty"`
	BatchSize  int     `json:"batch_size,omitempty"`
	Fanouts    []int   `json:"fanouts,omitempty"`
	Hidden     int     `json:"hidden,omitempty"`
	TrainLimit int     `json:"train_limit,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`

	// HostMemoryGB is the job's host budget in paper-gigabytes.
	HostMemoryGB int `json:"host_memory_gb,omitempty"`
	// Backend selects the storage backend (sim, file, linuring).
	Backend string `json:"backend,omitempty"`

	// CheckpointEverySteps is the mid-epoch save cadence (0 = epoch
	// boundaries only).
	CheckpointEverySteps int `json:"checkpoint_every_steps,omitempty"`
	// StallMs arms the pipeline watchdog at this many milliseconds of
	// no stage progress (0 = the daemon's default).
	StallMs int `json:"stall_ms,omitempty"`
}

// NumEpochs is Epochs with the default applied.
func (s JobSpec) NumEpochs() int {
	if s.Epochs <= 0 {
		return 1
	}
	return s.Epochs
}

// Config lowers the spec into a harness Config; it is the only lowering
// from a job's names and scalars. The spec checks what is its own — the
// names (an empty dataset means tiny, the smallest), the epoch range and
// StallMs — and the result passes the check every run makes, so a spec
// that lowers is one that runs. Per-job paths (CheckpointDir, DataFile)
// and shared-resource wiring (SharedStaging, IOGate, Rec, callbacks) are
// the caller's to fill in; the daemon forces RealTrain+InOrder on top so
// every admitted job is resumable with a deterministic trajectory.
func (s JobSpec) Config() (Config, error) {
	name := s.Dataset
	if name == "" {
		name = "tiny"
	}
	spec, err := gen.ByName(name)
	if err != nil {
		return Config{}, err
	}
	if _, err := SystemByName(s.System); err != nil {
		return Config{}, err
	}
	if s.Epochs < 0 || s.Epochs > 1000 {
		return Config{}, fmt.Errorf("trainsim: epochs %d out of range [0,1000]", s.Epochs)
	}
	if s.StallMs < 0 {
		return Config{}, fmt.Errorf("trainsim: stall_ms %d is negative", s.StallMs)
	}
	cfg := Config{
		Dataset:              spec,
		Dim:                  s.Dim,
		HostMemoryGB:         s.HostMemoryGB,
		BatchSize:            s.BatchSize,
		Fanouts:              s.Fanouts,
		Hidden:               s.Hidden,
		TrainLimit:           s.TrainLimit,
		Scale:                s.Scale,
		Seed:                 s.Seed,
		Backend:              s.Backend,
		CheckpointEverySteps: s.CheckpointEverySteps,
		StallDeadline:        time.Duration(s.StallMs) * time.Millisecond,
	}
	cfg.fill()
	if err := cfg.check(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
