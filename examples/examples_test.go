// Package examples_test assembles the GNNDrive pipeline by hand, the way
// a library user would: a dataset on a simulated SSD, a host-memory
// budget, the page cache over the SSD, a training device, and the
// engine that samples, extracts, trains and releases each mini-batch.
// Both run in order (core.Options.InOrder), so their losses repeat bit
// for bit and go test checks every printed line:
//
//	go test -run Example -v ./examples
package examples_test

import (
	"context"
	"fmt"
	"log"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

// Quickstart: build a small synthetic graph, assemble the pipeline,
// train a GraphSAGE model with real float32 math, and evaluate it.
func Example_quickstart() {
	// 1. A synthetic graph on a simulated SSD: 2,000 nodes, 8 classes,
	// planted-community features so the model has something to learn.
	ds, err := gen.BuildWith(gen.Tiny(), sim.Factory(sim.DefaultConfig()))
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Dev.Close()
	fmt.Printf("graph: %d nodes, %d edges, dim %d, %d classes\n",
		ds.NumNodes, ds.NumEdges, ds.Dim, ds.NumClasses)

	// 2. The machine: a host-memory budget, the OS page cache over the
	// SSD, and a training device.
	budget := hostmem.NewBudget(64 << 20)
	cache := pagecache.New(ds.Dev, budget)
	gpu := device.New(device.RTX3090())
	defer gpu.Close()

	// 3. GNNDrive with real training math.
	opts := core.DefaultOptions(nn.GraphSAGE)
	opts.RealTrain = true
	opts.InOrder = true
	opts.BatchSize = 64
	opts.Fanouts = []int{5, 5}
	opts.Hidden = 64
	opts.LR = 0.01
	eng, err := core.New(ds, gpu, budget, cache, metrics.NewRecorder(), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// 4. Train a few epochs; the pipeline samples, extracts features
	// asynchronously from the SSD, and trains.
	for epoch := 0; epoch < 5; epoch++ {
		res, err := eng.TrainEpochFrom(context.Background(), epoch, 0)
		if err != nil {
			log.Fatal(err)
		}
		val, err := eng.EvaluateVal()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: loss %.3f, train acc %.3f, val acc %.3f (read %.1f MB, reused %.1f MB)\n",
			epoch, res.Loss, res.Acc, val, float64(res.BytesRead)/1e6, float64(res.BytesReused)/1e6)
	}
	st := eng.FeatureBuffer().Stats()
	fmt.Printf("feature buffer: %d loads, %d reuse hits (%.0f%% reuse)\n",
		st.Loads, st.ReuseHits, 100*float64(st.ReuseHits)/float64(st.Loads+st.ReuseHits))
	// Output:
	// graph: 2000 nodes, 23988 edges, dim 32, 8 classes
	// epoch 0: loss 0.732, train acc 0.769, val acc 0.975 (read 1.1 MB, reused 1.0 MB)
	// epoch 1: loss 0.040, train acc 0.984, val acc 0.980 (read 0.0 MB, reused 1.2 MB)
	// epoch 2: loss 0.016, train acc 0.994, val acc 1.000 (read 0.0 MB, reused 1.3 MB)
	// epoch 3: loss 0.005, train acc 0.998, val acc 1.000 (read 0.0 MB, reused 1.2 MB)
	// epoch 4: loss 0.000, train acc 1.000, val acc 0.995 (read 0.0 MB, reused 1.3 MB)
	// feature buffer: 2000 loads, 46728 reuse hits (96% reuse)
}

// fraudClass is the label treated as "fraudster" in the synthetic graph.
const fraudClass = 0

// Fraud detection, one of the workloads the paper's introduction
// motivates: in a social-payments graph one class plays the fraudster.
// A GAT model is trained disk-based (attention helps because fraudsters
// connect to many benign accounts), then flags suspicious accounts on
// the validation split, scored by precision and recall for that class.
func Example_fraudDetection() {
	// A mid-size social graph: 6 account types, one of which is fraud.
	spec := gen.Spec{
		Name: "payments", Nodes: 8_000, EdgesPerNode: 8, Dim: 48,
		Classes: 6, Homophily: 0.65, Signal: 1.0,
		TrainFrac: 0.25, ValFrac: 0.10, Seed: 42,
	}
	ds, err := gen.BuildWith(spec, sim.Factory(sim.DefaultConfig()))
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Dev.Close()

	budget := hostmem.NewBudget(64 << 20)
	cache := pagecache.New(ds.Dev, budget)
	gpu := device.New(device.RTX3090())
	defer gpu.Close()

	opts := core.DefaultOptions(nn.GAT)
	opts.RealTrain = true
	opts.InOrder = true
	opts.BatchSize = 64
	opts.Fanouts = []int{6, 6}
	opts.Hidden = 48
	opts.LR = 0.01
	eng, err := core.New(ds, gpu, budget, cache, metrics.NewRecorder(), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	fmt.Printf("training GAT fraud detector on %d accounts (%d edges)\n", ds.NumNodes, ds.NumEdges)
	for epoch := 0; epoch < 6; epoch++ {
		res, err := eng.TrainEpochFrom(context.Background(), epoch, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: loss %.3f acc %.3f\n", epoch, res.Loss, res.Acc)
	}

	tp, fp, fn := score(ds, eng.Model(), opts.Fanouts)
	fmt.Printf("fraud class on validation: precision %.2f recall %.2f (tp=%d fp=%d fn=%d)\n",
		safeDiv(tp, tp+fp), safeDiv(tp, tp+fn), tp, fp, fn)
	// Output:
	// training GAT fraud detector on 8000 accounts (127984 edges)
	// epoch 0: loss 1.090 acc 0.619
	// epoch 1: loss 0.629 acc 0.791
	// epoch 2: loss 0.641 acc 0.786
	// epoch 3: loss 0.538 acc 0.818
	// epoch 4: loss 0.523 acc 0.821
	// epoch 5: loss 0.538 acc 0.822
	// fraud class on validation: precision 0.93 recall 0.69 (tp=88 fp=7 fn=40)
}

// score runs inference over the validation split and counts fraud-class
// confusion numbers.
func score(ds *graph.Dataset, model *nn.Model, fanouts []int) (tp, fp, fn int) {
	smp := sample.New(graph.NewRawReader(ds), fanouts, tensor.NewRNG(99))
	const chunk = 256
	for lo := 0; lo < len(ds.ValIdx); lo += chunk {
		hi := min(lo+chunk, len(ds.ValIdx))
		b, _, err := smp.SampleBatch(lo/chunk, ds.ValIdx[lo:hi])
		if err != nil {
			log.Fatal(err)
		}
		x := tensor.New(len(b.Nodes), ds.Dim)
		for i, v := range b.Nodes {
			if _, err := ds.ReadFeatureRaw(v, x.Row(i)[:0]); err != nil {
				log.Fatal(err)
			}
		}
		pred := tensor.Argmax(model.Predict(b, x))
		for i := 0; i < b.NumTargets; i++ {
			truth := ds.Labels[b.Nodes[i]] == fraudClass
			flagged := pred[i] == fraudClass
			switch {
			case truth && flagged:
				tp++
			case !truth && flagged:
				fp++
			case truth && !flagged:
				fn++
			}
		}
	}
	return tp, fp, fn
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
