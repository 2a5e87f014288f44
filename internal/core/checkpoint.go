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
	// Every plan is shuffled; "shuffle=true" stays in the hash so
	// checkpoints already on disk keep their fingerprint.
	fmt.Fprintf(h, " samplers=%d extractors=%d shuffle=true inorder=%t",
		e.opts.Samplers, e.opts.Extractors, e.opts.InOrder)
	fmt.Fprintf(h, " real=%t lr=%g seed=%d", e.opts.RealTrain, e.opts.LR, e.opts.Seed)
	fmt.Fprintf(h, " nodes=%d dim=%d classes=%d", e.ds.NumNodes, e.ds.Dim, e.ds.NumClasses)
	return h.Sum64()
}

// newRunState returns the RunState every save of the engine reuses: the
// options fingerprint, the seed, and the name and shape of each model
// parameter in the three tensor lists. runState fills in the rest.
func (e *Engine) newRunState() checkpoint.RunState {
	st := checkpoint.RunState{Fingerprint: e.optionsFingerprint(), Seed: e.opts.Seed}
	if e.learn.model != nil {
		for _, p := range e.learn.model.Params() {
			t := checkpoint.Tensor{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols}
			st.Params = append(st.Params, t)
			st.AdamM = append(st.AdamM, t)
			st.AdamV = append(st.AdamV, t)
		}
	}
	return st
}

// runState points the engine's reused RunState at cursor (epoch, step):
// the next mini-batch to train is step `step` of epoch `epoch`. Its
// tensors alias the live parameters and Adam moments instead of copying
// them, so it is valid only until the trainer's next step; the Saver
// encodes it before Start returns.
func (e *Engine) runState(epoch, step int) *checkpoint.RunState {
	st := &e.ckptState
	st.Epoch, st.Step = epoch, step
	if e.learn.model != nil {
		st.AdamT = e.learn.opt.T()
		for i, p := range e.learn.model.Params() {
			st.Params[i].Data = p.W.Data
			st.AdamM[i].Data, st.AdamV[i].Data = e.learn.opt.Moments(p)
		}
	}
	return st
}

// startSave waits for the checkpoint commit in flight, then encodes the
// run at the cursor and starts committing it in the background. It
// returns the error of the commit it waited for. Called from the trainer
// goroutine (the only writer of model and optimizer state), which is
// blocked while the snapshot is encoded, so it is consistent without
// locking.
func (e *Engine) startSave(epoch, step int) error {
	return e.noteCommit(e.ckptSaver.Start(e.runState(epoch, step)))
}

// waitSave waits for the checkpoint commit in flight, if any, and returns
// its error.
func (e *Engine) waitSave() error { return e.noteCommit(e.ckptSaver.Wait()) }

// noteCommit traces a finished commit's outcome and returns its error.
func (e *Engine) noteCommit(path string, err error) error {
	switch {
	case err != nil:
		e.opts.Tracer.Annotate(trace.StageWatchdog, "checkpoint save failed: "+err.Error())
	case path != "":
		e.opts.Tracer.Annotate(trace.StageWatchdog, "checkpoint committed: "+path)
	}
	return err
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
	if e.learn.model != nil {
		params := e.learn.model.Params()
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
		if err := e.learn.opt.ImportState(params, ast); err != nil {
			return 0, 0, err
		}
		for i, p := range params {
			copy(p.W.Data, st.Params[i].Data)
		}
	}
	return st.Epoch, st.Step, nil
}

// TrainEpochFrom trains epoch through the four-stage pipeline, starting
// at mini-batch startStep (the cursor ResumeRunState returned; 0 is a full
// epoch), and returns its timing breakdown. When ctx is cancelled (or a
// permanent storage error escalates) the four stages tear down promptly,
// leaving no goroutine, staging slot, or feature-buffer reference behind,
// and the cause is returned.
func (e *Engine) TrainEpochFrom(ctx context.Context, epoch, startStep int) (EpochResult, error) {
	return e.trainEpochSegment(ctx, epoch, e.ds.TrainIdx, nil, startStep)
}
