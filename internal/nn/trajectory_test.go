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

// recordedEngineLosses are the bits of ten consecutive step losses per
// model at the engine's shape — batches of 50 at fanouts (3,3,3), (3,3,2)
// for GAT — recorded before each conv was cut to the rows the next one
// reads. Three layers over three hops leave the input conv fewer rows
// than the batch has nodes, so unlike recordedLosses (two hops) these pin
// the input conv's trim as well.
var recordedEngineLosses = map[ModelKind][10]uint32{
	GraphSAGE: {0x403d2cef, 0x4015353a, 0x40024701, 0x3f6db29f, 0x3ed024fe, 0x3eeab9aa, 0x3eab61b2, 0x3e6345e5, 0x3e812b10, 0x3e21b1cc},
	GCN:       {0x40085d63, 0x3ffc1678, 0x3ff6f973, 0x3fde5d47, 0x3fc2f747, 0x3fe30c55, 0x3fc29117, 0x3fa965f1, 0x3fc204ba, 0x3fa457c2},
	GAT:       {0x400c5f97, 0x3ff8fd6c, 0x400800a1, 0x3ffa2db1, 0x3ff42df8, 0x3febaaf6, 0x3fe55811, 0x3fcf9ee5, 0x3fe3dab9, 0x3fcb026c},
}

// engineFanouts are the engine's default fanouts for kind.
func engineFanouts(kind ModelKind) []int {
	if kind == GAT {
		return []int{3, 3, 2}
	}
	return []int{3, 3, 3}
}

// tinyDataset generates gen.Tiny() on an instant in-memory device.
func tinyDataset(t *testing.T) *graph.Dataset {
	t.Helper()
	ds, err := gen.BuildWith(gen.Tiny(), sim.Factory(sim.InstantConfig()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Dev.Close() })
	return ds
}

// tinyBatch samples the batch of targets and gathers its features into x
// (reused when large enough) and its targets' labels.
func tinyBatch(t *testing.T, ds *graph.Dataset, s *sample.Sampler, id int, targets []int64, x *tensor.Matrix) (*sample.Batch, *tensor.Matrix, []int32) {
	t.Helper()
	b, _, err := s.SampleBatch(id, targets)
	if err != nil {
		t.Fatal(err)
	}
	x = tensor.EnsureShape(x, len(b.Nodes), ds.Dim)
	for i, v := range b.Nodes {
		if _, err := ds.ReadFeatureRaw(v, x.Row(i)[:0]); err != nil {
			t.Fatal(err)
		}
	}
	labels := make([]int32, len(targets))
	for i, v := range targets {
		labels[i] = ds.Labels[v]
	}
	return b, x, labels
}

// tinyTrajectory trains kind for ten steps of batch targets sampled at
// fanouts and returns each step's loss.
func tinyTrajectory(t *testing.T, kind ModelKind, batch int, fanouts []int) [10]uint32 {
	t.Helper()
	ds := tinyDataset(t)
	sampler := sample.New(graph.NewRawReader(ds), fanouts, tensor.NewRNG(11))
	model := NewModel(Config{Kind: kind, InDim: ds.Dim, Hidden: 64, Classes: ds.NumClasses, Layers: 3}, tensor.NewRNG(12))
	opt := NewAdam(0.01)
	var x *tensor.Matrix
	var losses [10]uint32
	for step := range losses {
		var b *sample.Batch
		var labels []int32
		b, x, labels = tinyBatch(t, ds, sampler, step, ds.TrainIdx[step*batch:(step+1)*batch], x)
		loss, _ := model.Loss(b, x, labels)
		opt.Step(model.Params())
		losses[step] = math.Float32bits(loss)
	}
	return losses
}

// TestRecordedLossTrajectory trains ten steps of 60 targets at fanouts
// (5,5): ≈ 900 nodes a batch, so the 32→64 and 64→64 layers run above the
// parallel threshold and the 64→8 one below it.
func TestRecordedLossTrajectory(t *testing.T) {
	for _, kind := range []ModelKind{GraphSAGE, GCN, GAT} {
		got := tinyTrajectory(t, kind, 60, []int{5, 5})
		if want := recordedLosses[kind]; got != want {
			t.Errorf("%v: step losses are not bit-identical to the recording:\n got %#08x\nwant %#08x", kind, got, want)
		}
	}
}

func TestRecordedEngineShapeTrajectory(t *testing.T) {
	for _, kind := range []ModelKind{GraphSAGE, GCN, GAT} {
		got := tinyTrajectory(t, kind, 50, engineFanouts(kind))
		if want := recordedEngineLosses[kind]; got != want {
			t.Errorf("%v: step losses are not bit-identical to the recording:\n got %#08x\nwant %#08x", kind, got, want)
		}
	}
}
