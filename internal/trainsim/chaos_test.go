package trainsim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/integrity"
)

// The chaos soak trains real math for several epochs while the injector
// flips bits, stalls transfers, and fails reads, and requires the final
// model to be bit-identical to a fault-free run: the integrity layer must
// detect and repair every corruption before it reaches a gradient.
//
// GNNDRIVE_TEST_BACKEND=file runs the soak against the real-file backend
// (CI smoke on tmpfs); the default is the simulated SSD.

// chaosBase is the training cell both the clean and the chaotic run use:
// real float32 math so loss trajectories are comparable bit-for-bit, and
// in-order training so the batch order is deterministic under timing
// jitter from stragglers and hedges.
func chaosBase(t *testing.T, name string) Config {
	t.Helper()
	cfg := tinyCfg()
	cfg.RealTrain = true
	cfg.Hidden = 24
	cfg.TrainLimit = 400
	cfg.InOrder = true
	if os.Getenv("GNNDRIVE_TEST_BACKEND") == "file" {
		cfg.Backend = "file"
		cfg.DataFile = filepath.Join(t.TempDir(), name+".img")
	}
	return cfg
}

// chaosFaults is the injection schedule. The straggler delay is sized per
// backend: the sim scales it by TimeScale (0.01 here), the file backend
// sleeps it raw in a worker.
func chaosFaults(cfg Config) *faults.Config {
	delay := 400 * time.Millisecond // sim: ~4ms effective at Scale 0.01
	if cfg.Backend == "file" {
		delay = 25 * time.Millisecond
	}
	return &faults.Config{
		Seed:           1234,
		TransientRate:  0.05,
		StragglerRate:  0.08,
		StragglerDelay: delay,
		CorruptRate:    0.05,
	}
}

// chaosIntegrity arms every defense: verification with repair (always on),
// hedging tight enough to beat the injected stragglers, and a breaker that
// both trips on the ~13% unhealthy rate and recovers between bursts.
func chaosIntegrity() *integrity.Options {
	return &integrity.Options{
		HedgeAfter: time.Millisecond,
		Breaker: integrity.BreakerOptions{
			Window:     64,
			MinSamples: 32,
			TripRate:   0.05,
			SlowAfter:  2 * time.Millisecond,
			Cooldown:   5 * time.Millisecond,
		},
	}
}

// sumIntegrity folds the per-epoch integrity deltas back into run totals.
func sumIntegrity(epochs []EpochStats) storage.IntegrityStats {
	var s storage.IntegrityStats
	for _, e := range epochs {
		s = s.Add(e.Integrity)
	}
	return s
}

func TestChaosSoak(t *testing.T) {
	defer DropDatasets()
	const epochs = 3

	clean := chaosBase(t, "clean")
	cleanRes, err := RunCtx(context.Background(), clean, GNNDriveGPU, RunOptions{Epochs: epochs})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	chaos := chaosBase(t, "chaos")
	chaos.Faults = chaosFaults(chaos)
	chaos.Integrity = chaosIntegrity()
	chaosRes, err := RunCtx(context.Background(), chaos, GNNDriveGPU, RunOptions{Epochs: epochs})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	// The run must have been genuinely chaotic: injected corruption,
	// stragglers, and transient errors all fired.
	fc := chaosRes.FaultCounts
	if fc.SilentCorrupt == 0 || fc.Straggler == 0 || fc.Transient == 0 {
		t.Fatalf("chaos run injected too little: %+v", fc)
	}

	// Bit-identical training: every corrupted read was served correct
	// bytes, every transient retried, so the loss/accuracy trajectory is
	// exactly the fault-free one.
	if len(chaosRes.Epochs) != len(cleanRes.Epochs) {
		t.Fatalf("chaos run trained %d epochs, clean %d", len(chaosRes.Epochs), len(cleanRes.Epochs))
	}
	for i := range cleanRes.Epochs {
		c, f := cleanRes.Epochs[i], chaosRes.Epochs[i]
		if f.Loss != c.Loss || f.Acc != c.Acc {
			t.Fatalf("epoch %d diverged under chaos: loss %v vs %v, acc %v vs %v",
				i, f.Loss, c.Loss, f.Acc, c.Acc)
		}
		if f.Escalations != 0 {
			t.Fatalf("epoch %d escalated %d errors in a transient-only schedule", i, f.Escalations)
		}
	}

	integ := sumIntegrity(chaosRes.Epochs)
	// Detection and repair: mismatches were caught, every one was
	// repaired from the intact raw path, none was persistent.
	if integ.ChecksumFailures == 0 {
		t.Fatal("no checksum failures detected under injected corruption")
	}
	if integ.Repairs != integ.ChecksumFailures {
		t.Fatalf("repairs %d != checksum failures %d", integ.Repairs, integ.ChecksumFailures)
	}
	if integ.Quarantined != 0 {
		t.Fatalf("%d blocks quarantined: transient corruption must repair", integ.Quarantined)
	}
	// Coverage: the build wrote every block through the wrapper, so no
	// read of the chaos run may have gone unverified.
	if integ.UnverifiedReads != 0 {
		t.Fatalf("%d reads went unverified (%d verified)", integ.UnverifiedReads, integ.VerifiedReads)
	}
	// Tail defense: hedges fired and beat at least one straggler.
	if integ.HedgesIssued == 0 || integ.HedgesWon == 0 {
		t.Fatalf("hedging never engaged: %+v", integ)
	}
	// Degradation: the breaker tripped under the error/latency burst and
	// recovered via a clean probe.
	if integ.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", integ)
	}
	if integ.BreakerRecoveries == 0 {
		t.Fatalf("breaker never recovered: %+v", integ)
	}

	// The clean run reports no integrity activity (no layer attached).
	if got := sumIntegrity(cleanRes.Epochs); got != (storage.IntegrityStats{}) {
		t.Fatalf("clean run reported integrity activity: %+v", got)
	}

	// File backend: the dataset build persisted its checksum sidecar.
	if chaos.Backend == "file" {
		if _, err := os.Stat(chaos.DataFile + ".crc"); err != nil {
			t.Fatalf("checksum sidecar missing: %v", err)
		}
	}
}

// TestChaosSoakCrashResume kills a chaotic checkpointed run mid-flight,
// resumes it, and requires the stitched epoch sequence to match the
// fault-free run bit for bit: crash consistency and corruption repair
// compose.
func TestChaosSoakCrashResume(t *testing.T) {
	defer DropDatasets()
	const epochs = 4

	clean := chaosBase(t, "clean-resume")
	cleanRes, err := RunCtx(context.Background(), clean, GNNDriveGPU, RunOptions{Epochs: epochs})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	chaos := chaosBase(t, "chaos-resume")
	chaos.Faults = chaosFaults(chaos)
	chaos.Integrity = chaosIntegrity()
	chaos.CheckpointDir = t.TempDir()

	// First launch dies mid-run. Epoch-boundary checkpoints mean the
	// interrupted epoch is not in the result and re-trains from its start
	// on resume, so the stitched sequence stays complete and comparable.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	first, err := RunCtx(ctx, chaos, GNNDriveGPU, RunOptions{Epochs: epochs})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run failed with a non-cancel error: %v", err)
	}
	interrupted := err != nil

	chaos.Resume = true
	second, err := RunCtx(context.Background(), chaos, GNNDriveGPU, RunOptions{Epochs: epochs})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if interrupted && len(second.Epochs) == 0 && len(first.Epochs) < epochs {
		t.Fatal("interrupted run resumed nothing")
	}

	all := append(append([]EpochStats{}, first.Epochs...), second.Epochs...)
	if len(all) != epochs {
		t.Fatalf("stitched run has %d epochs, want %d", len(all), epochs)
	}
	for i := range cleanRes.Epochs {
		if all[i].Loss != cleanRes.Epochs[i].Loss {
			t.Fatalf("epoch %d diverged across crash+chaos: loss %v vs clean %v",
				i, all[i].Loss, cleanRes.Epochs[i].Loss)
		}
	}

	integ := sumIntegrity(all)
	if integ.Quarantined != 0 {
		t.Fatalf("%d blocks quarantined across crash+resume", integ.Quarantined)
	}
	if integ.Repairs != integ.ChecksumFailures {
		t.Fatalf("repairs %d != checksum failures %d", integ.Repairs, integ.ChecksumFailures)
	}
	if fc := first.FaultCounts.Total() + second.FaultCounts.Total(); fc == 0 {
		t.Fatal("no faults injected across either launch")
	}
}
