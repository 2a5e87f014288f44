package trainsim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"gnndrive/internal/core"
	"gnndrive/internal/gen"
	"gnndrive/internal/nn"
	"gnndrive/internal/storage/integrity"
)

// lowered renders every scalar a Config decides in core.Options, so the
// golden rows below read as the table DESIGN.md documents.
func lowered(o core.Options) string {
	return fmt.Sprintf("%v h=%d l=%d batch=%d fan=%v stages=%d/%d q=%d ring=%d fb=%d joint=%d "+
		"inorder=%v sync=%v buf=%v gds=%v real=%v lr=%g seed=%d ckpt=%q/%d stall=%v",
		o.Model, o.Hidden, o.Layers, o.BatchSize, o.Fanouts, o.Samplers, o.Extractors,
		o.TrainQueueCap, o.RingDepth, o.FeatureSlots, o.MaxJointRead,
		o.InOrder, o.SyncExtraction, o.BufferedIO, o.GPUDirect, o.RealTrain, o.LR, o.Seed,
		o.CheckpointDir, o.CheckpointEverySteps, o.StallDeadline)
}

// TestEngineOptionsGolden pins the Config → core.Options lowering, defaults
// included: the values are what the harness produced field by field
// before the lowering became one function, so a moved default or a
// dropped override fails here instead of in a benchmark. The last four
// rows are the gated benchmark workloads' configs (bench/workloads.go).
func TestEngineOptionsGolden(t *testing.T) {
	const defaults = "h=256 l=3 batch=50 fan=[3 3 3] stages=4/4 q=4 ring=64 fb=0 joint=16384 "
	const off = "inorder=false sync=false buf=false gds=false real=false lr=0.003 "
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", Config{Seed: 1},
			"GraphSAGE " + defaults + off + `seed=1 ckpt=""/0 stall=0s`},
		{"inorder", Config{InOrder: true, Seed: 1},
			// core.New collapses the stage pools; the lowering leaves them.
			"GraphSAGE " + defaults + "inorder=true sync=false buf=false gds=false real=false lr=0.003 " + `seed=1 ckpt=""/0 stall=0s`},
		{"gat fanouts", Config{Model: nn.GAT, Seed: 1},
			"GAT h=256 l=3 batch=50 fan=[3 3 2] stages=4/4 q=4 ring=64 fb=0 joint=16384 " + off + `seed=1 ckpt=""/0 stall=0s`},
		{"overrides", Config{Model: nn.GCN, BatchSize: 20, Fanouts: []int{4, 2}, Hidden: 32, Seed: 9,
			SyncExtraction: true, BufferedIO: true, GPUDirect: true, StallDeadline: time.Second},
			"GCN h=32 l=3 batch=20 fan=[4 2] stages=4/4 q=4 ring=64 fb=0 joint=16384 " +
				"inorder=false sync=true buf=true gds=true real=false lr=0.003 " + `seed=9 ckpt=""/0 stall=1s`},
		{"feature buffer x needs the dataset", Config{FeatureBufferX: 2, Seed: 1},
			"GraphSAGE " + defaults + off + `seed=1 ckpt=""/0 stall=0s`},
		{"feature slots", Config{FeatureSlots: 12345, FeatureBufferX: 2, Seed: 1},
			"GraphSAGE h=256 l=3 batch=50 fan=[3 3 3] stages=4/4 q=4 ring=64 fb=12345 joint=16384 " + off + `seed=1 ckpt=""/0 stall=0s`},
		{"sim_strided", Config{Dataset: gen.Papers(), Backend: "sim", Scale: 0.5,
			FeatureBufferX: 1, TrainLimit: 4500, Seed: 1},
			"GraphSAGE " + defaults + off + `seed=1 ckpt=""/0 stall=0s`},
		{"file_packed_verify", Config{Dataset: gen.Papers(), Dim: 100, Backend: "file", Layout: "packed",
			Integrity: &integrity.Options{}, FeatureBufferX: 1, Scale: 0.01, Seed: 1},
			"GraphSAGE " + defaults + off + `seed=1 ckpt=""/0 stall=0s`},
		{"file_lowmem", Config{Dataset: gen.Papers(), Backend: "file", HostMemoryGB: 8, Scale: 0.01, Seed: 1},
			"GraphSAGE " + defaults + off + `seed=1 ckpt=""/0 stall=0s`},
		{"real_inorder_ckpt", Config{Dataset: gen.Papers(), Backend: "file", RealTrain: true, InOrder: true,
			Hidden: 64, TrainLimit: 300, CheckpointDir: "ck", CheckpointEverySteps: 3, Scale: 0.01, Seed: 1},
			"GraphSAGE h=64 l=3 batch=50 fan=[3 3 3] stages=4/4 q=4 ring=64 fb=0 joint=16384 " +
				"inorder=true sync=false buf=false gds=false real=true lr=0.003 " + `seed=1 ckpt="ck"/3 stall=0s`},
	} {
		if got := lowered(tc.cfg.EngineOptions()); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestJobSpecWireFormat pins gnnserved's wire format: a JobSpec with every
// field set marshals to exactly these 14 keys, so a knob moved between
// the CLI and the spec cannot add or rename one unnoticed.
func TestJobSpecWireFormat(t *testing.T) {
	spec := JobSpec{Dataset: "tiny", System: "gpu", Epochs: 2, Dim: 3, BatchSize: 4,
		Fanouts: []int{5}, Hidden: 6, TrainLimit: 7, Scale: 8, Seed: 9, HostMemoryGB: 10,
		Backend: "sim", CheckpointEverySteps: 11, StallMs: 12}
	v := reflect.ValueOf(spec)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s left zero: the spec must be fully populated", v.Type().Field(i).Name)
		}
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"backend", "batch_size", "checkpoint_every_steps", "dataset", "dim", "epochs",
		"fanouts", "hidden", "host_memory_gb", "scale", "seed", "stall_ms", "system", "train_limit"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JSON keys %v\nwant      %v", got, want)
	}
}

// TestFeatureBufferXGolden pins the one dataset-dependent knob on the
// Papers spec: FeatureBufferX multiples of Extractors x max-batch nodes
// (2188 for SAGE, 1770 for GAT at seed 1), clamped to the device allowance
// (44236 vectors of dim 128). Recorded from the engine the previous
// field-by-field lowering built for the same configs.
func TestFeatureBufferXGolden(t *testing.T) {
	defer DropDatasets()
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{}, 0}, // auto-sized by core.New
		{Config{FeatureBufferX: 1}, 8752},
		{Config{FeatureBufferX: 2}, 17504},
		{Config{FeatureBufferX: 1, InOrder: true}, 8752},
		{Config{FeatureBufferX: 1, Model: nn.GAT}, 7080},
		{Config{FeatureBufferX: 1000}, 44236},
		{Config{FeatureBufferX: 2, FeatureSlots: 12345}, 12345},
		{Config{FeatureBufferX: 1.5, BatchSize: 20, Fanouts: []int{4, 2}, Seed: 3}, 1878},
	} {
		cfg := tc.cfg
		cfg.Dataset, cfg.Scale = gen.Papers(), 0.01
		e, err := newEnv(cfg, systems[GNNDriveGPU].device())
		if err != nil {
			t.Fatal(err)
		}
		o, err := engineOptions(e.cfg, e.ds, e.dev)
		e.close()
		if err != nil {
			t.Fatal(err)
		}
		if o.FeatureSlots != tc.want {
			t.Errorf("X=%v slots=%d inorder=%v %v: FeatureSlots %d, want %d", tc.cfg.FeatureBufferX,
				tc.cfg.FeatureSlots, tc.cfg.InOrder, tc.cfg.Model, o.FeatureSlots, tc.want)
		}
	}
}

// TestStagingGeometryPins pins the staging pool the engine builds for the
// gated workloads' shapes on papers: one vector window per in-flight
// read, so 256 KiB at dim 128 and at packed dim 100, and 64 KiB in
// order. It then builds the engine of the 8 GB shape and checks what the
// pins leave the page cache: at least the whole index array, so the
// topology fits once it is warm. Sizing the pool for worst-case reads
// again (4 MiB here) leaves 2.7 MiB and fails.
func TestStagingGeometryPins(t *testing.T) {
	papers := gen.Papers()
	for _, tc := range []struct {
		name string
		cfg  Config
		want int64
	}{
		{"dim 128", Config{}, 256 << 10},
		{"packed dim 100", Config{Dim: 100, Layout: "packed"}, 256 << 10},
		{"in order", Config{InOrder: true}, 64 << 10},
	} {
		featBytes := papers.Dim * 4
		if tc.cfg.Dim != 0 {
			featBytes = tc.cfg.Dim * 4
		}
		units := tc.cfg.EngineOptions().StagingUnits(featBytes)
		if got := int64(units) * core.StagingUnit; got != tc.want {
			t.Errorf("%s: staging pool %d units = %d bytes, want %d", tc.name, units, got, tc.want)
		}
	}

	e, err := newEnv(Config{Dataset: papers, HostMemoryGB: 8, Scale: 0.01}, systems[GNNDriveGPU].device())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	sys, err := newGNNDrive(e)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if pool, index := e.budget.CachePool(), e.ds.Layout.IndicesLen; pool < index {
		t.Fatalf("8 GB host budget leaves the page cache %d bytes, under the %d-byte index array (pinned %d)",
			pool, index, e.budget.Pinned())
	}
}
