// Quickstart: build a small synthetic graph, assemble the GNNDrive
// pipeline by hand (device, host budget, page cache, engine), train a
// GraphSAGE model with real float32 math, and evaluate it.
//
//	go run ./examples/quickstart
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
	"gnndrive/internal/hostmem"
	"gnndrive/internal/metrics"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage/sim"
)

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// 1. A synthetic graph on a simulated SSD: 2,000 nodes, 8 classes,
	// planted-community features so the model has something to learn.
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.DefaultConfig())
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
	// asynchronously from the SSD, and trains, all overlapped.
	for epoch := 0; epoch < 5; epoch++ {
		res, err := eng.RunEpochCtx(ctx, epoch)
		if err != nil {
			log.Fatal(err)
		}
		val, err := eng.EvaluateVal()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: %v, loss %.3f, train acc %.3f, val acc %.3f (read %.1f MB, reused %.1f MB)\n",
			epoch, res.Total.Round(time.Millisecond), res.Loss, res.Acc, val,
			float64(res.BytesRead)/1e6, float64(res.BytesReused)/1e6)
	}
	st := eng.FeatureBuffer().Stats()
	fmt.Printf("feature buffer: %d loads, %d reuse hits (%.0f%% reuse)\n",
		st.Loads, st.ReuseHits, 100*float64(st.ReuseHits)/float64(st.Loads+st.ReuseHits))
}
