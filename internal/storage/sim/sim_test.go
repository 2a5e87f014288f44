package sim_test

import (
	"testing"

	"gnndrive/internal/storage"
	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/storage/storagetest"
)

func TestConformance(t *testing.T) {
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		return sim.New(storagetest.Capacity, sim.InstantConfig())
	})
}

func TestConformanceDefaultTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("modeled latencies in -short mode")
	}
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		return sim.New(storagetest.Capacity, sim.DefaultConfig())
	})
}

// The integrity wrapper over the simulator must itself satisfy the full
// Backend contract — it is a drop-in layer, not a restricted view.
func TestConformanceIntegrityWrapped(t *testing.T) {
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		b, err := integrity.Wrap(sim.New(storagetest.Capacity, sim.InstantConfig()), integrity.Options{})
		if err != nil {
			t.Fatalf("integrity.Wrap: %v", err)
		}
		return b
	})
}

// Synchronous reads take their waiter from the device's own pool.
func TestZeroAllocSyncReads(t *testing.T) {
	storagetest.ZeroAllocSync(t, func(t *testing.T) storage.Backend {
		return sim.New(storagetest.Capacity, sim.InstantConfig())
	})
}

func TestAccounting(t *testing.T) {
	storagetest.Accounting(t, func(t *testing.T) storage.Backend {
		return sim.New(storagetest.Capacity, sim.InstantConfig())
	})
}

func TestIntegrity(t *testing.T) {
	storagetest.RunIntegrity(t, func(t *testing.T) storage.Backend {
		return sim.New(storagetest.Capacity, sim.InstantConfig())
	})
}

func TestFactory(t *testing.T) {
	b, err := sim.Factory(sim.InstantConfig())(storagetest.Capacity)
	if err != nil {
		t.Fatalf("Factory: %v", err)
	}
	defer b.Close()
	if b.Capacity() != storagetest.Capacity {
		t.Fatalf("capacity %d, want %d", b.Capacity(), storagetest.Capacity)
	}
}
