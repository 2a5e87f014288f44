package nn

import (
	"math"
	"testing"

	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

// recordedLosses are the bits of ten consecutive training-step losses per
// model on gen.Tiny(), recorded from the commit before the matmul kernels
// were re-tiled and gatConv moved onto per-layer scratch. The kernels'
// contract is the same float32 operations on every output element in the
// same order, so the sequences must match bit for bit — not approximately.
var recordedLosses = map[ModelKind][10]uint32{
	GraphSAGE: {0x4046d989, 0x40167fc1, 0x3fc6c7a5, 0x3f784fb6, 0x3eedafff, 0x3ecc705a, 0x3eaa7b8a, 0x3e23c41b, 0x3df82f25, 0x3d31b66c},
	GCN:       {0x4009b956, 0x4003dfc6, 0x3ff9799c, 0x3fdbd4e9, 0x3feab006, 0x3fd31021, 0x3fcc5b33, 0x3fc066c5, 0x3fbcfd58, 0x3faa2133},
	GAT:       {0x400c1f83, 0x3ffbc98b, 0x4002b7dc, 0x3fe52d28, 0x3ff37e27, 0x3fe1d029, 0x3fd7ddae, 0x3fd969bb, 0x3fea58aa, 0x3fe05b1a},
}

// tinyTrajectory trains kind for ten steps of 60 targets (≈ 900 nodes a
// batch, so the 32→64 and 64→64 layers run above the parallel threshold
// and the 64→8 one below it) and returns each step's loss.
func tinyTrajectory(t *testing.T, kind ModelKind) [10]uint32 {
	t.Helper()
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.InstantConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	sampler := sample.New(graph.NewRawReader(ds), []int{5, 5}, tensor.NewRNG(11))
	model := NewModel(Config{Kind: kind, InDim: ds.Dim, Hidden: 64, Classes: ds.NumClasses, Layers: 3}, tensor.NewRNG(12))
	opt := NewAdam(0.01)
	var x *tensor.Matrix
	var losses [10]uint32
	for step := range losses {
		targets := ds.TrainIdx[step*60 : (step+1)*60]
		b, _, err := sampler.SampleBatch(step, targets)
		if err != nil {
			t.Fatal(err)
		}
		x = tensor.EnsureShape(x, len(b.Nodes), ds.Dim)
		for i, v := range b.Nodes {
			ds.ReadFeatureRaw(v, x.Row(i)[:0])
		}
		labels := make([]int32, len(targets))
		for i, v := range targets {
			labels[i] = ds.Labels[v]
		}
		loss, _ := model.Loss(b, x, labels)
		opt.Step(model.Params())
		losses[step] = math.Float32bits(loss)
	}
	return losses
}

func TestRecordedLossTrajectory(t *testing.T) {
	for _, kind := range []ModelKind{GraphSAGE, GCN, GAT} {
		got := tinyTrajectory(t, kind)
		if want := recordedLosses[kind]; got != want {
			t.Errorf("%v: step losses are not bit-identical to the recording:\n got %#08x\nwant %#08x", kind, got, want)
		}
	}
}
