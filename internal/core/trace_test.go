package core

import (
	"context"
	"testing"

	"gnndrive/internal/device"
	"gnndrive/internal/trace"
)

func TestTracerRecordsAllStages(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.Tracer = trace.New()
	e := newEngine(t, rig, opts)
	res, err := e.TrainEpochFrom(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := opts.Tracer.Analyze()
	for _, st := range []trace.Stage{trace.StageSample, trace.StageExtract, trace.StageTrain, trace.StageRelease} {
		if a.StageBusy[st] == 0 {
			t.Fatalf("stage %s never recorded", st)
		}
	}
	// One event per batch per stage.
	events := opts.Tracer.Events()
	perStage := map[trace.Stage]int{}
	for _, ev := range events {
		perStage[ev.Stage]++
	}
	if perStage[trace.StageTrain] != res.Batches {
		t.Fatalf("train events %d, batches %d", perStage[trace.StageTrain], res.Batches)
	}
}

func TestInOrderPipelineTrainsInOrder(t *testing.T) {
	rig := newRig(t, device.InstantConfig(), 64<<20)
	opts := testOpts()
	opts.InOrder = true
	opts.Tracer = trace.New()
	e := newEngine(t, rig, opts)
	if _, err := e.TrainEpochFrom(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if a := opts.Tracer.Analyze(); a.OutOfOrder != 0 {
		t.Fatalf("in-order pipeline trained %d batches out of order", a.OutOfOrder)
	}
}
