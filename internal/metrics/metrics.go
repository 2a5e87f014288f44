// Package metrics collects the measurements the paper's evaluation plots:
// per-epoch stage breakdowns (sample/extract/train/release plus
// MariusGNN-style data preparation) and time-series windows of CPU
// utilization, GPU utilization, and I/O-wait ratio (Figs. 3 and 11).
//
// Semantics follow the paper's monitoring: I/O wait is time a thread
// spends blocked on a *synchronous* storage operation (page-cache fault,
// sync read/write); time parked on an io_uring completion queue does not
// count, which is precisely why asynchronous extraction removes I/O wait.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"gnndrive/internal/storage"
)

// Counters is the one declaration of the pipeline's counter set: what a
// batch, an epoch and a whole job report about extraction, fault handling
// and storage integrity. A stage describes what it just did as a Counters
// delta; the per-epoch BreakdownCollector and the run-cumulative Recorder
// both sum deltas through Add, and Breakdown, trainsim.EpochStats and the
// serve daemon's /metrics Snapshot all embed the result.
type Counters struct {
	Batches        int   `json:"batches"`
	NodesExtracted int64 `json:"nodes_extracted"`
	// BytesRead is what came off the device; BytesNeeded is the payload
	// batches actually required from storage (misses × feature size), so
	// BytesRead/BytesNeeded is the read amplification. BytesReused is
	// feature bytes served from the feature buffer without I/O.
	BytesRead   int64 `json:"bytes_read"`
	BytesReused int64 `json:"bytes_reused"`
	BytesNeeded int64 `json:"bytes_needed"`
	// BackendReads counts the read ops the planner issued — packed layouts
	// shrink it by coalescing co-accessed nodes into joint reads.
	BackendReads int64 `json:"backend_reads"`

	// Fault tolerance: reads retried after a transient storage error,
	// direct→buffered degradations, errors escalated after the retry
	// budget ran out (or that were never retryable), and watchdog-detected
	// pipeline stalls.
	Retries     int64 `json:"retries"`
	Fallbacks   int64 `json:"fallbacks"`
	Escalations int64 `json:"escalations"`
	Stalls      int64 `json:"stalls"`

	// Integrity holds the storage integrity layer's counters (checksum
	// verification, read-repair, hedged reads, breaker transitions);
	// all-zero when no integrity layer is attached.
	Integrity storage.IntegrityStats `json:"integrity"`
}

// Add sums d into c field by field.
func (c *Counters) Add(d Counters) {
	c.Batches += d.Batches
	c.NodesExtracted += d.NodesExtracted
	c.BytesRead += d.BytesRead
	c.BytesReused += d.BytesReused
	c.BytesNeeded += d.BytesNeeded
	c.BackendReads += d.BackendReads
	c.Retries += d.Retries
	c.Fallbacks += d.Fallbacks
	c.Escalations += d.Escalations
	c.Stalls += d.Stalls
	c.Integrity = c.Integrity.Add(d.Integrity)
}

// ReadAmplification returns BytesRead / BytesNeeded — how many bytes were
// pulled off the device per byte a batch actually consumed. 1.0 is
// perfect; alignment slack and joint-read redundancy push it up. Zero
// when nothing was needed (fully cached).
func (c Counters) ReadAmplification() float64 {
	if c.BytesNeeded == 0 {
		return 0
	}
	return float64(c.BytesRead) / float64(c.BytesNeeded)
}

// counterSum is a Counters total that concurrent stages add deltas to.
// Deltas arrive once per batch, so one mutex is cheaper than it looks and
// keeps a reader's copy consistent across fields.
type counterSum struct {
	mu  sync.Mutex
	sum Counters
}

// Add merges one delta into the total.
func (s *counterSum) Add(d Counters) {
	s.mu.Lock()
	s.sum.Add(d)
	s.mu.Unlock()
}

// Counters returns a copy of the total so far.
func (s *counterSum) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Recorder accumulates a run's busy/wait time and its cumulative Counters
// from every pipeline component. A crash-resumed epoch re-reads the
// device, and the counters honestly include that.
type Recorder struct {
	cpuBusy atomic.Int64 // nanos of useful CPU work
	ioWait  atomic.Int64 // nanos blocked on synchronous I/O
	counterSum
	// gpuBusy is a provider because device busy time lives in the device
	// model; nil means "no GPU". Atomic: the engine installs it while a
	// previously started sampler may already be reading.
	gpuBusy atomic.Pointer[func() int64]
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetGPUProvider installs a cumulative-busy-nanos source for GPU
// utilization sampling.
func (r *Recorder) SetGPUProvider(f func() int64) { r.gpuBusy.Store(&f) }

// gpuProvider returns the installed GPU-busy source, or nil.
func (r *Recorder) gpuProvider() func() int64 {
	if p := r.gpuBusy.Load(); p != nil {
		return *p
	}
	return nil
}

// AddCPU accounts useful CPU time.
func (r *Recorder) AddCPU(d time.Duration) {
	if d > 0 {
		r.cpuBusy.Add(int64(d))
	}
}

// AddIOWait accounts synchronous I/O blocking time.
func (r *Recorder) AddIOWait(d time.Duration) {
	if d > 0 {
		r.ioWait.Add(int64(d))
	}
}

// CPUBusy returns cumulative CPU-busy time.
func (r *Recorder) CPUBusy() time.Duration { return time.Duration(r.cpuBusy.Load()) }

// IOWait returns cumulative I/O-wait time.
func (r *Recorder) IOWait() time.Duration { return time.Duration(r.ioWait.Load()) }

// Window is one sampling interval of the utilization time series.
type Window struct {
	// At is the window's end, relative to sampling start.
	At time.Duration
	// CPUUtil, GPUUtil, and IOWaitRatio are fractions in [0, ~1]
	// normalized by the configured parallelism.
	CPUUtil     float64
	GPUUtil     float64
	IOWaitRatio float64
}

// Sampler periodically snapshots a Recorder into utilization windows.
type Sampler struct {
	rec      *Recorder
	interval time.Duration
	cpuN     float64
	ioN      float64
	stop     chan struct{}
	done     chan struct{}

	mu      sync.Mutex
	windows []Window
}

// StartSampler begins sampling every interval. cpuThreads and ioThreads
// normalize the CPU-busy and I/O-wait fractions (how many workers could
// be busy/waiting simultaneously).
func (r *Recorder) StartSampler(interval time.Duration, cpuThreads, ioThreads int) *Sampler {
	if cpuThreads < 1 {
		cpuThreads = 1
	}
	if ioThreads < 1 {
		ioThreads = 1
	}
	s := &Sampler{
		rec: r, interval: interval,
		cpuN: float64(cpuThreads), ioN: float64(ioThreads),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *Sampler) run() {
	defer close(s.done)
	start := time.Now()
	lastCPU := s.rec.cpuBusy.Load()
	lastIO := s.rec.ioWait.Load()
	var lastGPU int64
	if gb := s.rec.gpuProvider(); gb != nil {
		lastGPU = gb()
	}
	lastT := start
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C:
			dt := now.Sub(lastT).Seconds()
			if dt <= 0 {
				continue
			}
			cpu := s.rec.cpuBusy.Load()
			io := s.rec.ioWait.Load()
			var gpu int64
			gb := s.rec.gpuProvider()
			if gb != nil {
				gpu = gb()
			}
			w := Window{
				At:          now.Sub(start),
				CPUUtil:     clamp01(float64(cpu-lastCPU) / 1e9 / dt / s.cpuN),
				IOWaitRatio: clamp01(float64(io-lastIO) / 1e9 / dt / s.ioN),
			}
			if gb != nil {
				w.GPUUtil = clamp01(float64(gpu-lastGPU) / 1e9 / dt)
			}
			s.mu.Lock()
			s.windows = append(s.windows, w)
			s.mu.Unlock()
			lastCPU, lastIO, lastGPU, lastT = cpu, io, gpu, now
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Stop ends sampling and returns the collected windows.
func (s *Sampler) Stop() []Window {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.windows
}

// Breakdown is a per-epoch summary: stage times plus the epoch's Counters.
// Stage times are summed across the workers of that stage (they overlap
// in wall-clock time for pipelined systems); Total is wall-clock.
type Breakdown struct {
	Prep    time.Duration // MariusGNN-style data preparation
	Sample  time.Duration
	Extract time.Duration
	Train   time.Duration
	Release time.Duration
	Total   time.Duration

	Counters
}

// atomicDuration supports concurrent stage accumulation.
type atomicDuration struct{ n atomic.Int64 }

func (a *atomicDuration) add(d time.Duration) { a.n.Add(int64(d)) }
func (a *atomicDuration) load() time.Duration { return time.Duration(a.n.Load()) }

// BreakdownCollector accumulates a Breakdown from concurrent stages:
// stage times through the five adders, everything else as Counters deltas
// through Add.
type BreakdownCollector struct {
	prep, sample, extract, train, release atomicDuration
	counterSum
}

// AddPrep adds data-preparation time.
func (c *BreakdownCollector) AddPrep(d time.Duration) { c.prep.add(d) }

// AddSample adds sample-stage time.
func (c *BreakdownCollector) AddSample(d time.Duration) { c.sample.add(d) }

// AddExtract adds extract-stage time.
func (c *BreakdownCollector) AddExtract(d time.Duration) { c.extract.add(d) }

// AddTrain adds train-stage time.
func (c *BreakdownCollector) AddTrain(d time.Duration) { c.train.add(d) }

// AddRelease adds release-stage time.
func (c *BreakdownCollector) AddRelease(d time.Duration) { c.release.add(d) }

// Snapshot finalizes the breakdown with the epoch wall-clock total.
func (c *BreakdownCollector) Snapshot(total time.Duration) Breakdown {
	return Breakdown{
		Prep:     c.prep.load(),
		Sample:   c.sample.load(),
		Extract:  c.extract.load(),
		Train:    c.train.load(),
		Release:  c.release.load(),
		Total:    total,
		Counters: c.Counters(),
	}
}
