// Fraud detection: one of the workloads the paper's introduction
// motivates. A social-payments graph is generated where one class plays
// the "fraudster" role; a GAT model is trained disk-based with GNNDrive
// (attention helps because fraudsters connect to many benign accounts),
// then the trained model flags suspicious accounts on the validation
// split and we report precision/recall for the fraud class.
//
//	go run ./examples/frauddetection
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

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

// fraudClass is the label treated as "fraudster" in the synthetic graph.
const fraudClass = 0

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A mid-size social graph: 6 account types, one of which is fraud.
	spec := gen.Spec{
		Name: "payments", Nodes: 8_000, EdgesPerNode: 8, Dim: 48,
		Classes: 6, Homophily: 0.65, Signal: 1.0,
		TrainFrac: 0.25, ValFrac: 0.10, Seed: 42,
	}
	ds, err := gen.BuildStandalone(spec, sim.DefaultConfig())
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
		res, err := eng.RunEpochCtx(ctx, epoch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: %v loss %.3f acc %.3f\n",
			epoch, res.Total.Round(time.Millisecond), res.Loss, res.Acc)
	}

	// Score the validation accounts.
	tp, fp, fn := score(ds, eng.Model(), opts.Fanouts)
	precision := safeDiv(tp, tp+fp)
	recall := safeDiv(tp, tp+fn)
	fmt.Printf("fraud class on validation: precision %.2f recall %.2f (tp=%d fp=%d fn=%d)\n",
		precision, recall, tp, fp, fn)
}

// score runs inference over the validation split and counts fraud-class
// confusion numbers.
func score(ds *graph.Dataset, model *nn.Model, fanouts []int) (tp, fp, fn int) {
	smp := sample.New(graph.NewRawReader(ds), fanouts, tensor.NewRNG(99))
	const chunk = 256
	for lo := 0; lo < len(ds.ValIdx); lo += chunk {
		hi := lo + chunk
		if hi > len(ds.ValIdx) {
			hi = len(ds.ValIdx)
		}
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
