package serve

import (
	"fmt"
	"testing"

	"gnndrive/internal/core"
	"gnndrive/internal/device"
	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/hostmem"
	"gnndrive/internal/nn"
	"gnndrive/internal/pagecache"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
	"gnndrive/internal/trainsim"
)

// TestDemandCoversEngineAllocation is admission's safety property: for any
// job config, the demand ComputeDemand prices from the config alone is at
// least what core.New then allocates for it — staging bytes, staging slot
// size, feature-buffer slots and bytes — and the feature-buffer pin it
// hands the engine never trips the §4.2 minimum. Random batch sizes,
// fanouts, models, pipeline orders and feature sizes (including vectors
// larger than a joint read) over the tiny and Papers specs.
func TestDemandCoversEngineAllocation(t *testing.T) {
	specs := []gen.Spec{gen.Tiny()}
	if !testing.Short() {
		specs = append(specs, gen.Papers())
	}
	rng := tensor.NewRNG(42)
	for _, spec := range specs {
		dims := []int{0}
		if spec.Nodes <= 2000 {
			dims = []int{0, 100, 4200} // 4200 floats > the 16 KiB joint-read cap
		}
		for _, dim := range dims {
			built := spec
			if dim != 0 {
				built.Dim = dim
			}
			ds, err := gen.BuildStandalone(built, sim.InstantConfig())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				cfg := trainsim.Config{
					Dataset: spec, Dim: dim, Seed: 1 + uint64(i),
					Model:     []nn.ModelKind{nn.GraphSAGE, nn.GCN, nn.GAT}[rng.Intn(3)],
					BatchSize: []int{0, 10, 25, 60}[rng.Intn(4)],
					Fanouts:   [][]int{nil, {4, 4}, {2, 2, 2}, {10}}[rng.Intn(4)],
					InOrder:   rng.Intn(2) == 0,
				}
				checkDemandCovers(t, fmt.Sprintf("%s dim=%d #%d", spec.Name, dim, i), cfg, ds)
			}
			ds.Dev.Close()
		}
	}
}

func checkDemandCovers(t *testing.T, name string, cfg trainsim.Config, ds *graph.Dataset) {
	t.Helper()
	d := ComputeDemand(cfg)
	dev := device.New(device.InstantConfig())
	defer dev.Close()
	budget := hostmem.NewBudget(1 << 40)
	o := cfg.EngineOptions()
	o.FeatureSlots = d.FeatureSlots // what buildConfig pins through Config.FeatureSlots
	eng, err := core.New(ds, dev, budget, pagecache.New(ds.Dev, budget), nil, o)
	if err != nil {
		t.Errorf("%s: engine refused the admitted sizing (demand %+v): %v", name, d, err)
		return
	}
	defer eng.Close()
	staging := budget.Pinned() - ds.IndptrBytes() - int64(len(ds.Labels))*4
	if max := int64(d.StagingSlots) * int64(d.SlotBytes); staging > max || staging%int64(d.SlotBytes) != 0 {
		t.Errorf("%s: engine staged %d bytes, demand covers %d x %d", name, staging, d.StagingSlots, d.SlotBytes)
	}
	if fb := eng.FeatureBuffer(); fb.Slots() > d.FeatureSlots || dev.MemUsed() > d.FeatureBytes {
		t.Errorf("%s: feature buffer %d slots / %d device bytes, demand covers %d / %d",
			name, fb.Slots(), dev.MemUsed(), d.FeatureSlots, d.FeatureBytes)
	}
}
