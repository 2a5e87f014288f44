package gen

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gnndrive/internal/errutil"
	"gnndrive/internal/graph"
	"gnndrive/internal/layout"
	"gnndrive/internal/sample"
	"gnndrive/internal/tensor"
)

// SampleTrace replays the engine's first training epoch offline —
// identical batch schedule (sample.PlanSeed) and identical per-batch
// sampling streams (sample.BatchSeed) — and records the feature-access
// order as a layout.Trace for the offline packer. Batches sampled here
// are exactly the batches a training run with the same (batchSize,
// fanouts, seed, shuffle) would extract in epoch 0, so packing by this
// trace places the vectors a batch loads together side by side, where
// the first and every subsequent epoch actually touch them.
//
// The index array is read into memory once. GOMAXPROCS workers then
// claim batches from a shared cursor, each with its own sampler reseeded
// per batch, and the batches enter the trace in plan order, so the trace
// does not depend on the worker count.
func SampleTrace(ds *graph.Dataset, batchSize int, fanouts []int, seed uint64, shuffle bool) (*layout.Trace, error) {
	var planRNG *tensor.RNG
	if shuffle {
		planRNG = tensor.NewRNG(sample.PlanSeed(seed, 0))
	}
	plan := sample.NewPlan(ds.TrainIdx, batchSize, planRNG)

	reader, err := graph.NewMemReader(ds)
	if err != nil {
		return nil, fmt.Errorf("gen: trace: %w", err)
	}
	nodes := make([][]int64, len(plan.Batches))
	var next atomic.Int64
	var firstErr errutil.FirstError
	var workers sync.WaitGroup
	nWorkers := runtime.GOMAXPROCS(0)
	workers.Add(nWorkers)
	for w := 0; w < nWorkers; w++ {
		smp := sample.New(reader, fanouts, tensor.NewRNG(seed))
		go func() {
			defer workers.Done()
			for !firstErr.Failed() {
				i := int(next.Add(1) - 1)
				if i >= len(plan.Batches) {
					return
				}
				smp.Reseed(sample.BatchSeed(seed, 0, i))
				b, _, err := smp.SampleBatch(i, plan.Batches[i])
				if err != nil {
					firstErr.Set(fmt.Errorf("gen: trace batch %d: %w", i, err))
					return
				}
				nodes[i] = b.Nodes
			}
		}()
	}
	workers.Wait()
	if err := firstErr.Get(); err != nil {
		return nil, err
	}
	tr := layout.NewTrace()
	for _, b := range nodes {
		tr.AddBatch(b)
	}
	return tr, nil
}
