package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/storage"
	"gnndrive/internal/trainsim"
)

// runOpts are the resolved command-line options of one workload run.
type runOpts struct {
	seed    uint64
	seconds int
	smoke   bool
	outDir  string
	dataDir string
}

// memWindow measures allocation between two points of a run.
type memWindow struct{ mallocs, bytes uint64 }

func readMem() memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memWindow{ms.Mallocs, ms.TotalAlloc}
}

func (a memWindow) since(b memWindow) memWindow {
	return memWindow{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// settle returns garbage (set-up's, or the previous round's engine) to
// the OS and restarts the peak-RSS mark, so that a round's peak is its own.
func settle(res *runResult) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil && !res.peakNoted {
		res.peakNoted = true
		res.Notes = append(res.Notes, fmt.Sprintf("rss_peak_mb includes setup (peak reset unavailable: %v)", err))
	}
}

// logCapture collects backend diagnostics (the linuring fallback notice).
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// checkNative fails a linuring workload that silently ran on the file
// pool instead, with the probe's reason.
func (l *logCapture) checkNative(t *tally, env envStamp) {
	reason, fell := l.fallback()
	t.check("io_uring native", env.IOUring && !fell, "silent fallback to the file pool: "+reason)
}

func (l *logCapture) fallback() (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, "falling back") {
			return s, true
		}
	}
	return "", false
}

// lossHasher folds step losses into an FNV-1a hash, bit for bit.
type lossHasher struct {
	h hash.Hash64
	n int
}

func newLossHasher() *lossHasher { return &lossHasher{h: fnv.New64a()} }

func (l *lossHasher) add(losses []float32) {
	var b [4]byte
	for _, v := range losses {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		l.h.Write(b[:])
	}
	l.n += len(losses)
}

func (l *lossHasher) String() string { return fmt.Sprintf("fnv64a:%016x/%d", l.h.Sum64(), l.n) }

// checkEpoch applies the checks every trained epoch must pass.
func checkEpoch(t *tally, expected int, st trainsim.EpochStats) {
	t.batches(expected, st.Batches)
	t.check("no retries, escalations or stalls",
		st.Retries == 0 && st.Escalations == 0 && st.Stalls == 0,
		fmt.Sprintf("retries=%d escalations=%d stalls=%d", st.Retries, st.Escalations, st.Stalls))
}

// checkIntegrity applies the checks of a verified workload to the summed
// integrity counters of its epochs.
func checkIntegrity(t *tally, in storage.IntegrityStats) {
	t.check("reads verified", in.VerifiedReads > 0, fmt.Sprintf("VerifiedReads=%d", in.VerifiedReads))
	t.check("no checksum failures", in.ChecksumFailures == 0, fmt.Sprintf("ChecksumFailures=%d", in.ChecksumFailures))
	t.check("no unverified reads", in.UnverifiedReads == 0, fmt.Sprintf("UnverifiedReads=%d", in.UnverifiedReads))
}

// setupDataset builds cfg's dataset into a fresh data file, exactly as
// the first RunCtx would, and syncs it. trainsim keeps the result cached
// under the config, so the rounds that follow reuse it.
func setupDataset(cfg *trainsim.Config, pl *placement, name string) error {
	if cfg.Backend != "sim" {
		path, err := pl.dataFile(name)
		if err != nil {
			return err
		}
		cfg.DataFile = path
	}
	// DeviceStats is the harness's build-and-cache entry point; a failed
	// build surfaces as the first round's error.
	trainsim.DeviceStats(*cfg)
	if cfg.DataFile != "" {
		return syncFile(cfg.DataFile)
	}
	return nil
}

// runEndToEnd measures one trainsim workload with tracing off.
func runEndToEnd(w workload, o runOpts) (*runResult, error) {
	pl, err := newPlacement(o.outDir, w.name, o.dataDir)
	if err != nil {
		return nil, err
	}
	defer pl.close()

	cfg := w.config(o.seed, datasetFor(o.smoke))
	logs := &logCapture{}
	cfg.Logf = logs.logf
	res := &runResult{Workload: w.name, Why: w.why, Seed: o.seed, Smoke: o.smoke,
		Config: resolve(cfg, w)}
	var t tally

	ref, err := newRefKernel(pl)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	defer ref.close()

	var setups timings
	last := ref.read()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			trainsim.DropDataset(cfg)
			pl.dropMem()
		}
		t0 := time.Now()
		if err := setupDataset(&cfg, pl, "data.img"); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		// Collect set-up's garbage first, or the collector's own workers
		// run beside the kernel and the reading says "slow machine".
		runtime.GC()
		now := ref.read()
		setups.add(d, between(last, now, refSetup))
		last = now
	}
	defer trainsim.DropDataset(cfg)
	res.Env = stampEnv(pl, cfg.DataFile)

	expected := batchesPerEpoch(cfg)
	epochs := 1 + w.steady
	var (
		steady, cold timings
		makespans    []float64
		peaks        []float64 // peak RSS of every round, MB
		mem          memWindow
		steadyBatch  int
		integ        storage.IntegrityStats
		losses       = newLossHasher()
		firstLoss    float64
		lastLoss     float64
	)
	for r := 0; r < w.rounds; r++ {
		c := cfg
		if cfg.CheckpointEverySteps > 0 {
			c.CheckpointDir = pl.subdir(fmt.Sprintf("ckpt-%d", r))
		}
		// A reading of the reference kernel brackets every epoch: the
		// harness calls OnEpoch between epochs, with the pipeline idle.
		// Each round starts from a collected heap and a restarted peak: the
		// previous round's engine is garbage by now, and when it goes would
		// otherwise decide this round's peak RSS and overlap its first
		// reading.
		settle(res)
		var start memWindow
		readings := append(make([]refReading, 0, epochs+1), ref.read())
		c.OnEpoch = func(e int, st trainsim.EpochStats) {
			if e == epochs-1 {
				d := readMem().since(start)
				mem.mallocs += d.mallocs
				mem.bytes += d.bytes
			}
			readings = append(readings, ref.read())
			if e == 0 {
				start = readMem()
			}
		}
		t0, spent0 := time.Now(), ref.spent
		run, err := trainsim.RunCtx(context.Background(), c, trainsim.GNNDriveGPU,
			trainsim.RunOptions{Epochs: epochs})
		makespans = append(makespans, (time.Since(t0) - (ref.spent - spent0)).Seconds())
		peaks = append(peaks, peakRSSMB())
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		t.check("every epoch ran", len(run.Epochs) == epochs, fmt.Sprintf("%d of %d", len(run.Epochs), epochs))
		for e, st := range run.Epochs {
			checkEpoch(&t, expected, st)
			integ = integ.Add(st.Integrity)
			losses.add(st.StepLosses)
			index := 1.0
			if !w.ref.none() && e+1 < len(readings) {
				index = between(readings[e], readings[e+1], w.ref)
			}
			if e == 0 {
				cold.add(st.Total.Seconds(), index)
				if r == 0 {
					firstLoss = st.Loss
				}
			} else {
				steady.add(st.Total.Seconds(), index)
				steadyBatch += st.Batches
			}
			lastLoss = st.Loss
		}
		if c.CheckpointDir != "" {
			st, path, err := checkpoint.LoadLatest(c.CheckpointDir)
			ok := err == nil && st.Epoch == epochs && st.Step == 0
			t.check("last checkpoint decodes", ok, fmt.Sprintf("path=%s err=%v", path, err))
		}
	}

	if cfg.Integrity != nil {
		checkIntegrity(&t, integ)
	}
	if cfg.Backend == "linuring" {
		logs.checkNative(&t, res.Env)
	}
	if cfg.RealTrain {
		res.LossHash = losses.String()
		t.check("loss falls", lastLoss < firstLoss, fmt.Sprintf("first epoch %.4f, last epoch %.4f", firstLoss, lastLoss))
	}
	res.DirectDegraded = trainsim.DeviceStats(cfg).DirectDegraded

	res.endToEndMetrics(measured{setups: setups, steady: steady, cold: cold, makespans: makespans,
		mem: mem, batches: steadyBatch, peaks: peaks})
	ref.samples(res.Samples)
	res.finish(&t)
	return res, nil
}
