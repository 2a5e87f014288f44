package trainsim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"gnndrive/internal/baselines/ginex"
	"gnndrive/internal/baselines/marius"
	"gnndrive/internal/baselines/pygplus"
	"gnndrive/internal/checkpoint"
	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/nn"
)

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

// System is one training system bound to a run's dataset and device. The
// paper compares the systems on the same model trained on the same
// mini-batches; what a System implements is the part that differs, the
// data path. A system with a sample-only mode (Fig. 2's "-only" bars) also
// has a SampleOnly(ctx, epoch) method.
type System interface {
	TrainEpoch(ctx context.Context, epoch int) (core.EpochResult, error)
	Model() *nn.Model
	Close()
}

// systemRow is one row of the systems table.
type systemRow struct {
	name    string   // as the paper spells it
	aliases []string // other lower-case names SystemByName accepts
	device  func() device.Config
	build   func(*env) (System, error)
}

// systems is the one table of training systems, indexed by kind.
var systems = [...]systemRow{
	GNNDriveGPU: {"GNNDrive-GPU", []string{"", "gnndrive", "gpu"}, device.RTX3090, newGNNDrive},
	GNNDriveCPU: {"GNNDrive-CPU", []string{"cpu"}, device.XeonCPU, newGNNDrive},
	PyGPlus: {"PyG+", []string{"pyg", "pygplus", "pyg-plus"}, device.RTX3090, func(e *env) (System, error) {
		return system(pygplus.New(e.ds, e.dev, e.budget, e.cache, e.rec, e.knobs()))
	}},
	Ginex: {"Ginex", nil, device.RTX3090, func(e *env) (System, error) {
		// Ginex persists its sampling results in the scratch region past
		// the dataset.
		return system(ginex.New(e.ds, e.dev, e.budget, e.rec, ginex.Options{Knobs: e.knobs(),
			ScratchOff: e.ds.Layout.FeaturesOff + e.ds.Layout.FeaturesLen, ScratchLen: ScratchBytes / 2}))
	}},
	Marius: {"MariusGNN", []string{"marius"}, device.RTX3090, func(e *env) (System, error) {
		return system(marius.New(e.ds, e.dev, e.budget, e.rec, e.knobs()))
	}},
}

// row returns k's row of the systems table.
func (k SystemKind) row() (*systemRow, error) {
	if k < 0 || int(k) >= len(systems) {
		return nil, fmt.Errorf("trainsim: unknown system %d", int(k))
	}
	return &systems[k], nil
}

// String returns the system name as the paper spells it.
func (k SystemKind) String() string {
	if r, err := k.row(); err == nil {
		return r.name
	}
	return fmt.Sprintf("SystemKind(%d)", int(k))
}

// SystemByName parses a system name as JobSpec.System and the gnndrive
// command's -system flag spell it: case-insensitive paper spellings plus
// short and kebab-case aliases.
func SystemByName(name string) (SystemKind, error) {
	lower := strings.ToLower(name)
	for k, r := range systems {
		if lower == strings.ToLower(r.name) || slices.Contains(r.aliases, lower) {
			return SystemKind(k), nil
		}
	}
	return 0, fmt.Errorf("trainsim: unknown system %q", name)
}

// system is a constructor's result as a System, keeping a failed
// constructor's nil pointer out of the interface.
func system[S System](s S, err error) (System, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}

// gnndrive is the engine as a System. A resumed run trains its first
// epoch from the checkpoint's step; logf reports failed checkpoint saves.
type gnndrive struct {
	*core.Engine
	resumeEpoch, resumeStep int
	logf                    func(format string, args ...any)
}

func newGNNDrive(e *env) (System, error) {
	eng, err := core.New(e.ds, e.dev, e.budget, e.cache, e.rec, e.cfg.EngineOptions())
	if err != nil {
		return nil, err
	}
	if e.cfg.OnEngine != nil {
		e.cfg.OnEngine(eng)
	}
	g := &gnndrive{Engine: eng, logf: e.cfg.Logf}
	if g.logf == nil {
		g.logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	if e.cfg.Resume && e.cfg.CheckpointDir != "" {
		ep, st, err := eng.ResumeRunState()
		switch {
		case err == nil:
			g.resumeEpoch, g.resumeStep = ep, st
			e.firstEpoch = ep
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Nothing to resume: a fresh run is the right behavior
			// (first launch with -resume in the restart loop).
		default:
			eng.Close()
			return nil, err
		}
	}
	return g, nil
}

func (g *gnndrive) TrainEpoch(ctx context.Context, epoch int) (core.EpochResult, error) {
	step := 0
	if epoch == g.resumeEpoch {
		step = g.resumeStep
	}
	r, err := g.TrainEpochFrom(ctx, epoch, step)
	if err == nil && r.CheckpointErr != nil {
		// Save failures degrade resume granularity, not training;
		// surface them without failing the run.
		g.logf("trainsim: checkpoint save failed: %v", r.CheckpointErr)
	}
	return r, err
}
