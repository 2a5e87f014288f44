package core

// Engine-side run checkpointing. The checkpoint package owns the
// container format and the crash-atomic commit; this file owns what goes
// into a RunState and what it means to come back from one.
//
// Resume determinism rests on two facts: (1) the per-epoch shuffle and
// the per-batch sampling streams are pure functions of (seed, epoch,
// batch ID), so no generator state needs persisting — the cursor plus
// the seed re-derives every remaining batch exactly; (2) the Adam
// moments and step count are restored bit-for-bit, so the resumed
// update sequence matches the uninterrupted one. Exact *per-step loss
// order* additionally requires InOrder mode (stage parallelism reorders
// mini-batches), which is why mid-epoch cursors are only written there.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/nn"
	"gnndrive/internal/trace"
)

// optionsFingerprint hashes everything that shapes the training
// trajectory: model architecture, batch schedule, stage parallelism
// (reordering changes the step order), seed, and the dataset's shape.
// A checkpoint from a different configuration must not resume silently.
func (e *Engine) optionsFingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "model=%d hidden=%d layers=%d batch=%d fanouts=%v",
		e.opts.Model, e.opts.Hidden, e.opts.Layers, e.opts.BatchSize, e.opts.Fanouts)
	fmt.Fprintf(h, " samplers=%d extractors=%d shuffle=%t inorder=%t",
		e.opts.Samplers, e.opts.Extractors, e.opts.shuffle, e.opts.InOrder)
	fmt.Fprintf(h, " real=%t lr=%g seed=%d", e.opts.RealTrain, e.opts.LR, e.opts.Seed)
	fmt.Fprintf(h, " nodes=%d dim=%d classes=%d", e.ds.NumNodes, e.ds.Dim, e.ds.NumClasses)
	return h.Sum64()
}

// buildRunState snapshots the run at cursor (epoch, step): the next
// mini-batch to train is step `step` of epoch `epoch`.
func (e *Engine) buildRunState(epoch, step int) *checkpoint.RunState {
	st := &checkpoint.RunState{
		Fingerprint: e.optionsFingerprint(),
		Epoch:       epoch,
		Step:        step,
		Seed:        e.opts.Seed,
	}
	if e.model != nil {
		params := e.model.Params()
		ast := e.opt.ExportState(params)
		st.AdamT = ast.T
		st.Params = make([]checkpoint.Tensor, len(params))
		st.AdamM = make([]checkpoint.Tensor, len(params))
		st.AdamV = make([]checkpoint.Tensor, len(params))
		for i, p := range params {
			st.Params[i] = checkpoint.Tensor{
				Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols,
				Data: append([]float32(nil), p.W.Data...),
			}
			// ExportState already deep-copied the moments.
			st.AdamM[i] = checkpoint.Tensor{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: ast.M[i]}
			st.AdamV[i] = checkpoint.Tensor{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: ast.V[i]}
		}
	}
	return st
}

// saveRunState commits a checkpoint at the cursor. Called from the
// trainer goroutine (the only writer of model and optimizer state), so
// the snapshot is consistent without locking.
func (e *Engine) saveRunState(epoch, step int) error {
	if e.ckptSaver == nil {
		return nil
	}
	path, err := e.ckptSaver.Save(e.buildRunState(epoch, step))
	if err != nil {
		e.opts.Tracer.Annotate(trace.StageWatchdog, "checkpoint save failed: "+err.Error())
		return err
	}
	e.opts.Tracer.Annotate(trace.StageWatchdog, "checkpoint committed: "+path)
	return nil
}

// ResumeRunState loads the newest valid checkpoint from
// Options.CheckpointDir, restores the model parameters and Adam state,
// and returns the resume cursor: the next mini-batch to train is step
// `step` of epoch `epoch` (step 0 = epoch start). Corrupt newer files
// are skipped in favor of older valid ones; a structurally valid
// checkpoint from a different configuration fails with ErrFingerprint.
func (e *Engine) ResumeRunState() (epoch, step int, err error) {
	if e.opts.CheckpointDir == "" {
		return 0, 0, errors.New("core: no CheckpointDir configured")
	}
	st, path, err := checkpoint.LoadLatest(e.opts.CheckpointDir)
	if err != nil {
		return 0, 0, err
	}
	if st.Fingerprint != e.optionsFingerprint() {
		return 0, 0, fmt.Errorf("%w: %s was written by a different configuration",
			checkpoint.ErrFingerprint, path)
	}
	if e.model != nil {
		params := e.model.Params()
		if len(st.Params) != len(params) {
			return 0, 0, fmt.Errorf("%w: %s has %d params, model has %d",
				checkpoint.ErrFingerprint, path, len(st.Params), len(params))
		}
		ast := nn.AdamState{T: st.AdamT, M: make([][]float32, len(params)), V: make([][]float32, len(params))}
		for i, p := range params {
			ct := st.Params[i]
			if ct.Name != p.Name || ct.Rows != p.W.Rows || ct.Cols != p.W.Cols {
				return 0, 0, fmt.Errorf("%w: %s param %d is %q %dx%d, model has %q %dx%d",
					checkpoint.ErrFingerprint, path, i, ct.Name, ct.Rows, ct.Cols,
					p.Name, p.W.Rows, p.W.Cols)
			}
			ast.M[i] = st.AdamM[i].Data
			ast.V[i] = st.AdamV[i].Data
		}
		// Validate everything before mutating anything: a failed resume
		// must leave the freshly initialized model untouched.
		if err := e.opt.ImportState(params, ast); err != nil {
			return 0, 0, err
		}
		for i, p := range params {
			copy(p.W.Data, st.Params[i].Data)
		}
	}
	return st.Epoch, st.Step, nil
}

// TrainEpochFrom trains epoch starting at mini-batch startStep (the
// cursor ResumeRunState returned). startStep 0 is a full epoch.
func (e *Engine) TrainEpochFrom(ctx context.Context, epoch, startStep int) (EpochResult, error) {
	return e.trainEpochSegment(ctx, epoch, e.ds.TrainIdx, nil, startStep)
}
