package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/device"
	"gnndrive/internal/faults"
	"gnndrive/internal/sample"
)

// ckptTestOpts is the deterministic-resume configuration: InOrder (the
// mode with an exact mid-epoch cursor), real math, mid-epoch saves.
func ckptTestOpts(dir string) Options {
	o := testOpts()
	o.RealTrain = true
	o.Hidden = 32
	o.InOrder = true
	o.CheckpointDir = dir
	o.CheckpointEverySteps = 3
	o.checkpointKeep = 100
	return o
}

// TestDeterministicResumeAfterKill is the crash-consistency acceptance
// test: train with mid-epoch checkpointing, kill the run at an arbitrary
// mini-batch (cancel injected from the extract stage), resume from the
// newest checkpoint in a fresh engine — with storage faults injected —
// and require the per-step loss sequence to be bit-identical to an
// uninterrupted run's.
func TestDeterministicResumeAfterKill(t *testing.T) {
	// Reference: two uninterrupted epochs.
	refRig := newRig(t, device.InstantConfig(), 64<<20)
	refOpts := ckptTestOpts("") // no checkpointing on the reference run
	refOpts.CheckpointEverySteps = 0
	refEng := newEngine(t, refRig, refOpts)
	ref0, err := refEng.RunEpochCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ref1, err := refEng.RunEpochCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref0.StepLosses) < 12 {
		t.Fatalf("reference epoch too short (%d steps) to exercise mid-epoch resume", len(ref0.StepLosses))
	}

	// Victim: same run with checkpointing, killed mid-epoch. The kill
	// fires when extraction of batch 10 begins; with the in-order chain
	// and a bounded train queue the trainer has then completed at least
	// 10-1-cap(trainQ) steps, so a mid-epoch checkpoint exists.
	dir := t.TempDir()
	vicRig := newRig(t, device.InstantConfig(), 64<<20)
	vicEng := newEngine(t, vicRig, ckptTestOpts(dir))
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	vicEng.testExtractHook = func(_ context.Context, b *sample.Batch) {
		if b.ID == 10 {
			kill()
		}
	}
	vres, verr := vicEng.RunEpochCtx(ctx, 0)
	if !errors.Is(verr, context.Canceled) {
		t.Fatalf("victim epoch: err = %v, want context.Canceled", verr)
	}
	// The steps trained before the kill must already match the reference.
	for i, l := range vres.StepLosses {
		if l != ref0.StepLosses[i] {
			t.Fatalf("pre-kill step %d: loss %v, reference %v", i, l, ref0.StepLosses[i])
		}
	}
	vicEng.Close()

	// Resume: a fresh engine over the same checkpoint directory, now
	// with transient storage faults injected — retries must not perturb
	// the trajectory.
	resRig := newRig(t, device.InstantConfig(), 64<<20)
	resRig.ds.Dev.SetInjector(faults.NewInjector(faults.Config{
		Seed:           7,
		TransientRate:  0.01,
		ShortReadRate:  0.005,
		StragglerRate:  0.005,
		StragglerDelay: time.Microsecond,
	}))
	resEng := newEngine(t, resRig, ckptTestOpts(dir))
	epoch, step, err := resEng.ResumeRunState()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 0 || step == 0 || step%3 != 0 || step > len(vres.StepLosses) {
		t.Fatalf("resume cursor (%d, %d) is not a mid-epoch multiple of the save cadence", epoch, step)
	}
	res0, err := resEng.TrainEpochFrom(context.Background(), epoch, step)
	if err != nil {
		t.Fatal(err)
	}
	wantTail := ref0.StepLosses[step:]
	if len(res0.StepLosses) != len(wantTail) {
		t.Fatalf("resumed epoch trained %d steps, want %d", len(res0.StepLosses), len(wantTail))
	}
	for i := range wantTail {
		if res0.StepLosses[i] != wantTail[i] {
			t.Fatalf("resumed step %d (absolute %d): loss %v, reference %v",
				i, step+i, res0.StepLosses[i], wantTail[i])
		}
	}
	// The next full epoch must match too (Adam moments and step count
	// came back bit-identical).
	res1, err := resEng.RunEpochCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.StepLosses) != len(ref1.StepLosses) {
		t.Fatalf("epoch 1 trained %d steps, want %d", len(res1.StepLosses), len(ref1.StepLosses))
	}
	for i := range ref1.StepLosses {
		if res1.StepLosses[i] != ref1.StepLosses[i] {
			t.Fatalf("epoch 1 step %d: loss %v, reference %v", i, res1.StepLosses[i], ref1.StepLosses[i])
		}
	}
	// Epoch boundaries committed cursors: the newest checkpoint now
	// points at (2, 0).
	st, _, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 || st.Step != 0 {
		t.Fatalf("final cursor (%d, %d), want (2, 0)", st.Epoch, st.Step)
	}
}

// TestResumeFallsBackOverCorruptNewest corrupts the newest committed
// checkpoint and requires ResumeRunState to fall back to the previous
// valid one instead of failing or loading garbage.
func TestResumeFallsBackOverCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	rig := newRig(t, device.InstantConfig(), 64<<20)
	eng := newEngine(t, rig, ckptTestOpts(dir))
	if _, err := eng.RunEpochCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	names := ckptNames(t, dir)
	if len(names) < 2 {
		t.Fatalf("need at least 2 checkpoints for fallback, have %v", names)
	}
	newest := filepath.Join(dir, names[len(names)-1])
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, fi.Size()/3); err != nil {
		t.Fatal(err)
	}

	rig2 := newRig(t, device.InstantConfig(), 64<<20)
	eng2 := newEngine(t, rig2, ckptTestOpts(dir))
	epoch, step, err := eng2.ResumeRunState()
	if err != nil {
		t.Fatal(err)
	}
	// The truncated newest was the epoch-end (1, 0) cursor; fallback
	// must land on the last mid-epoch save of epoch 0.
	if epoch != 0 || step == 0 {
		t.Fatalf("fallback cursor (%d, %d), want a mid-epoch cursor of epoch 0", epoch, step)
	}
}

// TestResumeRejectsMismatchedOptions requires a structurally valid
// checkpoint from a different configuration to fail with ErrFingerprint.
func TestResumeRejectsMismatchedOptions(t *testing.T) {
	dir := t.TempDir()
	rig := newRig(t, device.InstantConfig(), 64<<20)
	eng := newEngine(t, rig, ckptTestOpts(dir))
	if _, err := eng.RunEpochCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	other := ckptTestOpts(dir)
	other.Seed = 999 // a different trajectory entirely
	rig2 := newRig(t, device.InstantConfig(), 64<<20)
	eng2 := newEngine(t, rig2, other)
	if _, _, err := eng2.ResumeRunState(); !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Fatalf("mismatched resume: err = %v, want ErrFingerprint", err)
	}
}

// TestReorderedPipelineCheckpointsOnlyAtEpochBoundaries: outside InOrder
// the mid-epoch cursor would lie, so only (epoch+1, 0) cursors may ever
// be committed, regardless of CheckpointEverySteps.
func TestReorderedPipelineCheckpointsOnlyAtEpochBoundaries(t *testing.T) {
	dir := t.TempDir()
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := ckptTestOpts(dir)
	opts.InOrder = false // parallel stages, reordering possible
	eng := newEngine(t, rig, opts)
	if _, err := eng.RunEpochCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	names := ckptNames(t, dir)
	if len(names) != 1 || names[0] != checkpoint.FileName(1, 0) {
		t.Fatalf("reordered pipeline committed %v, want only %s", names, checkpoint.FileName(1, 0))
	}
}

// TestCheckpointSaveFailureDoesNotFailEpoch: a sink-level crash during a
// save is reported on the result, not as an epoch error, and the
// previous checkpoint survives.
func TestCheckpointSaveFailureDoesNotFailEpoch(t *testing.T) {
	dir := t.TempDir()
	sink := faults.NewCkptSink()
	sink.Arm(faults.CkptTornWrite, 1) // second checkpoint write crashes
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := ckptTestOpts(dir)
	opts.ckptSink = sink
	eng := newEngine(t, rig, opts)
	res, err := eng.RunEpochCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("epoch must survive a checkpoint save failure, got %v", err)
	}
	if !errors.Is(res.CheckpointErr, faults.ErrCkptCrash) {
		t.Fatalf("CheckpointErr = %v, want ErrCkptCrash", res.CheckpointErr)
	}
	if sink.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", sink.Injected())
	}
	// Everything still on disk validates.
	if _, _, err := checkpoint.LoadLatest(dir); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSeedMakesSamplingOrderIndependent: the same batch sampled by
// different sampler instances after different histories must produce the
// identical subgraph.
func TestBatchSeedMakesSamplingOrderIndependent(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.InOrder = true
	a := newEngine(t, rig, opts)
	resA, err := a.RunEpochCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same dataset, different stage parallelism: batch contents must not
	// depend on which goroutine samples them, so the extracted node
	// count is identical.
	rig2 := newRig(t, device.InstantConfig(), 64<<20)
	opts2 := testOpts()
	opts2.Samplers = 3
	opts2.Extractors = 2
	b := newEngine(t, rig2, opts2)
	resB, err := b.RunEpochCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if resA.NodesExtracted != resB.NodesExtracted {
		t.Fatalf("extracted %d nodes in-order vs %d reordered: batch content depends on goroutine assignment",
			resA.NodesExtracted, resB.NodesExtracted)
	}
}

func ckptNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "run-") && strings.HasSuffix(e.Name(), ".ckpt") {
			names = append(names, e.Name())
		}
	}
	return names
}
