package gen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/graph"
	"gnndrive/internal/layout"
	"gnndrive/internal/nn"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

// The engine's GraphSAGE defaults: the batches a default packed run
// traces.
var (
	traceBatch   = core.DefaultKnobs(nn.GraphSAGE).BatchSize
	traceFanouts = core.DefaultKnobs(nn.GraphSAGE).Fanouts
)

// serialTrace is SampleTrace as one loop: batches sampled one after
// another by one sampler reading each neighbor list from the device.
// It is the oracle the parallel trace must reproduce.
func serialTrace(t *testing.T, ds *graph.Dataset, seed uint64) *layout.Trace {
	t.Helper()
	plan := sample.NewPlan(ds.TrainIdx, traceBatch, tensor.NewRNG(sample.PlanSeed(seed, 0)))
	smp := sample.New(graph.NewRawReader(ds), traceFanouts, tensor.NewRNG(seed))
	tr := layout.NewTrace()
	for i, targets := range plan.Batches {
		smp.Reseed(sample.BatchSeed(seed, 0, i))
		b, _, err := smp.SampleBatch(i, targets)
		if err != nil {
			t.Fatalf("serial trace batch %d: %v", i, err)
		}
		tr.AddBatch(b.Nodes)
	}
	return tr
}

func packedBy(t *testing.T, ds *graph.Dataset, tr *layout.Trace) *layout.Packed {
	t.Helper()
	p, err := layout.NewPacked(ds.Layout.FeaturesOff, int(ds.FeatBytes()), ds.NumNodes, tr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSampleTraceMatchesSerialReplay pins the parallel trace to the
// serial one: packing by either places every node at the same offset,
// whatever GOMAXPROCS is (CI runs it at one and four procs).
func TestSampleTraceMatchesSerialReplay(t *testing.T) {
	papers := Papers()
	papers.Dim = 100
	for _, spec := range []Spec{Tiny(), papers} {
		ds, err := BuildWith(spec, integrity.WrapFactory(sim.Factory(sim.InstantConfig()), integrity.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Dev.Close() })
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Name, seed), func(t *testing.T) {
				tr, err := SampleTrace(ds, traceBatch, traceFanouts, seed, true)
				if err != nil {
					t.Fatal(err)
				}
				got, want := packedBy(t, ds, tr), packedBy(t, ds, serialTrace(t, ds, seed))
				for v := int64(0); v < ds.NumNodes; v++ {
					if g, w := got.NodeOffset(v), want.NodeOffset(v); g != w {
						t.Fatalf("node %d packed at %d, serial replay packs it at %d", v, g, w)
					}
				}
			})
		}
	}
}

// TestSampleTraceRejectsBadNeighbor corrupts one index entry of a
// training node into an ID past the last node: the trace fails with
// graph.ErrBadNeighbor, without a panic, and leaves no worker behind.
func TestSampleTraceRejectsBadNeighbor(t *testing.T) {
	ds := buildTiny(t)
	victim := int64(-1)
	for _, v := range ds.TrainIdx {
		if ds.Degree(v) > 0 {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Fatal("no training node has a neighbor")
	}
	var bad [4]byte
	binary.LittleEndian.PutUint32(bad[:], uint32(ds.NumNodes))
	if err := ds.Dev.WriteRaw(bad[:], ds.Layout.IndicesOff+4*ds.Indptr[victim]); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_, err := SampleTrace(ds, traceBatch, traceFanouts, 1, true)
	if !errors.Is(err, graph.ErrBadNeighbor) {
		t.Fatalf("trace over a corrupt index array: err = %v, want graph.ErrBadNeighbor", err)
	}
	// Workers are joined before SampleTrace returns; give the last
	// Done'd goroutine a moment to leave the scheduler's count.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed trace, %d before", n, before)
	}
}
