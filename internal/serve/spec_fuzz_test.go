package serve

import (
	"bytes"
	"errors"
	"testing"

	"gnndrive/internal/core"
	"gnndrive/internal/trainsim"
)

// FuzzJobSpec feeds arbitrary POST /jobs bodies through admission's whole
// front half: decodeSpec, lowerSpec and ComputeDemand. Every body must end
// in ErrBadSpec or in a demand the envelope can account: at least one
// feature slot, FeatureBytes exactly FeatureSlots feature records, no
// negative field, and staging of exactly the units the lowered engine
// builds, never less than its longest read (a joint read or one vector
// window). Seeds live in testdata/fuzz/FuzzJobSpec; one is a batch
// size whose bound overflowed to zero feature slots.
func FuzzJobSpec(f *testing.F) {
	d := &Daemon{} // lowerSpec reads only the zero Config's StallDeadline
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		var cfg trainsim.Config
		if err == nil {
			cfg, _, err = d.lowerSpec(spec)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("%q: error %v is not ErrBadSpec", body, err)
			}
			return
		}
		dim := cfg.Dataset.Dim
		if cfg.Dim != 0 {
			dim = cfg.Dim
		}
		dm := ComputeDemand(cfg)
		if dm.FeatureSlots < 1 || dm.FeatureBytes < 0 || dm.FeatureBytes != int64(dm.FeatureSlots)*int64(dim)*4 ||
			dm.StagingSlots < 0 || dm.IOTokens < 0 {
			t.Fatalf("%q: demand %+v (dim %d) outside the envelope's accounting", body, dm, dim)
		}
		o := cfg.EngineOptions()
		window := (dim*4 + 2*(core.StagingUnit-1)) / core.StagingUnit
		longest := max(window, (o.MaxJointRead+core.StagingUnit-1)/core.StagingUnit)
		if want := o.StagingUnits(dim * 4); dm.StagingSlots != want || dm.StagingSlots < longest {
			t.Fatalf("%q: demand stages %d units; the engine builds %d, its longest read takes %d",
				body, dm.StagingSlots, want, longest)
		}
	})
}
