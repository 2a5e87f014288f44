package main

import (
	"os"

	"gnndrive/internal/checkpoint"
)

func (r *replay) initCheckpoint() {
	if dir := r.d.cfg.CheckpointDir; dir != "" && r.model != nil {
		r.saver = &checkpoint.Saver{Dir: dir}
	}
}

// runState snapshots model and optimizer the way the engine's
// checkpointer does.
func (r *replay) runState(epoch, step int) *checkpoint.RunState {
	params := r.model.Params()
	ast := r.opt.ExportState(params)
	st := &checkpoint.RunState{Epoch: epoch, Step: step, Seed: r.opts.Seed, AdamT: ast.T,
		Params: make([]checkpoint.Tensor, len(params)),
		AdamM:  make([]checkpoint.Tensor, len(params)),
		AdamV:  make([]checkpoint.Tensor, len(params)),
	}
	for i, p := range params {
		t := checkpoint.Tensor{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols}
		st.Params[i], st.AdamM[i], st.AdamV[i] = t, t, t
		st.Params[i].Data = append([]float32(nil), p.W.Data...)
		st.AdamM[i].Data, st.AdamV[i].Data = ast.M[i], ast.V[i]
	}
	return st
}

// checkpointStep saves where the engine would after `step` trained
// batches of an n-batch epoch: every CheckpointEverySteps steps
// mid-epoch, and at the epoch boundary. Training is stalled meanwhile.
func (r *replay) checkpointStep(epoch, step, n int) error {
	if r.saver == nil {
		return nil
	}
	every := r.d.cfg.CheckpointEverySteps
	var st *checkpoint.RunState
	switch {
	case step == n:
		st = r.runState(epoch+1, 0)
	case every > 0 && step%every == 0:
		st = r.runState(epoch, step)
	default:
		return nil
	}
	id := r.rec.begin(spanCheckpoint, noSpan, step)
	path, err := r.saver.Save(st)
	r.rec.end(id)
	if err != nil {
		return err
	}
	r.saves++
	if fi, err := os.Stat(path); err == nil {
		r.saveBytes = fi.Size()
	}
	return nil
}

func (r *replay) checkpointMetrics(m metricSet, totals map[string]spanTotal) {
	s := totals[spanCheckpoint]
	m["checkpoint.save_ms"] = ratio(float64(s.dur)/1e6, float64(s.n))
	m["checkpoint.bytes"] = float64(r.saveBytes)
	m["checkpoint.saves_per_epoch"] = float64(r.saves)
}
