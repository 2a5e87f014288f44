// Package sim is the simulator entry in the storage-backend registry: a
// modeled SATA/NVMe solid-state drive (channels, service times, queueing,
// fault injection) behind storage.Backend. Every experiment that needs
// the paper's timing model builds its device here.
//
// The paper's claims are about I/O *scheduling* — synchronous reads stall
// the pipeline, asynchronous reads with a deep queue saturate the device,
// direct I/O must be sector-aligned — not about flash physics. The model
// therefore captures exactly those properties:
//
//   - the device has N internal channels; requests striped across them
//     proceed in parallel, so bandwidth grows with concurrency until all
//     channels are busy (Appendix B's saturation curve);
//   - each request has a service time = base latency + bytes/bandwidth,
//     scaled by TimeScale so experiments finish in seconds, and each
//     channel serves its queue in FIFO order on the modeled clock, so a
//     deep queue keeps it busy back to back;
//   - the backing store is an in-memory byte image, so reads return real
//     bytes and real training can run through the same path;
//   - per-request queueing delay is tracked, reproducing the latency
//     growth with thread count / I/O depth in Fig. B.1.
//
// Writes are for dataset setup only and are untimed.
package sim

import (
	"fmt"
	"sync"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/faults"
	"gnndrive/internal/storage"
)

// Config describes the simulated device.
type Config struct {
	// ReadLatency is the per-request base service latency before scaling.
	ReadLatency time.Duration
	// BytesPerSec is the per-channel streaming bandwidth before scaling.
	BytesPerSec float64
	// Channels is the internal parallelism of the device.
	Channels int
	// SectorSize is the direct-I/O access granularity (512 B on the
	// paper's drives).
	SectorSize int
	// TimeScale multiplies every modeled duration; <1 speeds the
	// simulation up uniformly. 0 means 1.0.
	TimeScale float64
}

// DefaultConfig models a SATA SSD (PM883-like: ~90us random read, ~520MB/s
// sequential split over 8 channels) scaled 1:20 so a scaled epoch runs in
// seconds.
func DefaultConfig() Config {
	return Config{
		ReadLatency: 90 * time.Microsecond,
		BytesPerSec: 65e6, // per channel; 8 channels ~ 520 MB/s aggregate
		Channels:    8,
		SectorSize:  512,
		TimeScale:   0.05,
	}
}

// InstantConfig returns a zero-latency configuration for unit tests.
func InstantConfig() Config {
	return Config{ReadLatency: 0, BytesPerSec: 0, Channels: 4, SectorSize: 512, TimeScale: 0}
}

// Device is a simulated SSD backed by an in-memory image. It implements
// storage.Backend; what it owns beyond the shared pieces is the channel
// timing model.
type Device struct {
	cfg      Config
	image    []byte
	channels []*channel

	storage.Injection
	storage.Counters
	*storage.SyncReads

	fence storage.Fence // Submit's channel sends happen before Close's channel close
	wg    sync.WaitGroup
}

var _ storage.Backend = (*Device)(nil)

type channel struct {
	dev       *Device
	queue     chan *storage.Request
	busyUntil time.Time
	pacer     errutil.Pacer
}

// New creates a device of the given capacity.
func New(capacity int64, cfg Config) *Device {
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	if cfg.SectorSize <= 0 {
		cfg.SectorSize = 512
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	d := &Device{cfg: cfg, image: make([]byte, capacity)}
	d.SyncReads = storage.NewSyncReads(d.Submit, cfg.SectorSize)
	d.channels = make([]*channel, cfg.Channels)
	for i := range d.channels {
		c := &channel{dev: d, queue: make(chan *storage.Request, 4096)}
		d.channels[i] = c
		d.wg.Add(1)
		go c.run()
	}
	return d
}

// Factory returns a storage.Factory building simulated backends of the
// requested capacity with this configuration.
func Factory(cfg Config) storage.Factory {
	return func(capacity int64) (storage.Backend, error) {
		return New(capacity, cfg), nil
	}
}

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 { return int64(len(d.image)) }

// SectorSize returns the direct-I/O granularity.
func (d *Device) SectorSize() int { return d.cfg.SectorSize }

// Close stops the channel goroutines. Outstanding requests drain first;
// requests submitted afterwards complete with ErrClosed.
func (d *Device) Close() error {
	if !d.fence.Shut() {
		return nil
	}
	for _, c := range d.channels {
		close(c.queue)
	}
	d.wg.Wait()
	return nil
}

// ReadRaw copies device bytes into p with no modeled cost. It is for
// dataset setup and test verification only — never on a timed path.
// Out-of-range access is a programming error in the simulator and panics.
func (d *Device) ReadRaw(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(d.image)) {
		panic(fmt.Sprintf("sim: ReadRaw [%d,%d) outside capacity %d", off, off+int64(len(p)), len(d.image)))
	}
	copy(p, d.image[off:])
	return nil
}

// WriteSync stores p at off, blocking for the modeled service time.
// Used by systems that write on the training path (e.g. Ginex persisting
// superbatch sampling results).
func (d *Device) WriteSync(p []byte, off int64) (time.Duration, error) {
	if err := storage.CheckBounds(off, int64(len(p)), d.Capacity()); err != nil {
		return 0, err
	}
	start := time.Now()
	svc := d.serviceTime(len(p))
	if svc > 0 {
		time.Sleep(svc)
	}
	d.WriteAt(p, off)
	d.AddBusy(svc)
	return time.Since(start), nil
}

// WriteAt stores p at off with no modeled cost (dataset setup).
func (d *Device) WriteAt(p []byte, off int64) {
	if off < 0 || off+int64(len(p)) > int64(len(d.image)) {
		panic(fmt.Sprintf("sim: WriteAt [%d,%d) outside capacity %d", off, off+int64(len(p)), len(d.image)))
	}
	copy(d.image[off:], p)
}

// WriteRaw is storage.Backend's untimed setup write (WriteAt).
func (d *Device) WriteRaw(p []byte, off int64) error {
	d.WriteAt(p, off)
	return nil
}

// serviceTime returns the modeled service duration for n bytes.
func (d *Device) serviceTime(n int) time.Duration {
	t := float64(d.cfg.ReadLatency)
	if d.cfg.BytesPerSec > 0 {
		t += float64(n) / d.cfg.BytesPerSec * float64(time.Second)
	}
	return time.Duration(t * d.cfg.TimeScale)
}

// Submit enqueues an asynchronous read. The request's Done callback fires
// on completion. Requests are striped across channels by offset so
// sequential streams still engage all channels sector-interleaved.
// Submitting to a closed device completes the request with ErrClosed.
func (d *Device) Submit(req *storage.Request) {
	d.fence.Admit([]*storage.Request{req}, d.Capacity(), d.enqueue)
}

func (d *Device) enqueue(req *storage.Request) {
	d.channels[(req.Off/int64(d.cfg.SectorSize))%int64(len(d.channels))].queue <- req
}

// run serves the channel's queue as a FIFO server on the modeled clock:
// a request's service starts at max(its admission, the previous finish)
// (errutil.Pacer), however late the channel goroutine itself woke, and
// the request completes no earlier than errutil.PaceSlack before its
// modeled finish.
func (c *channel) run() {
	defer c.dev.wg.Done()
	for req := range c.queue {
		svc := c.dev.serviceTime(len(req.Buf))
		dec := c.dev.Decide(req.Off, len(req.Buf))
		// A cancelled request is not waited out, but the channel's modeled
		// clock has advanced, so the device stays "busy" for later requests
		// either way.
		finish, err := c.pacer.Pace(req.Ctx, req.Submitted, c.busyUntil, svc)
		c.busyUntil = finish
		if err != nil {
			c.dev.Abandon(req, 0)
			continue
		}
		if dec.Delay > 0 {
			extra := time.Duration(float64(dec.Delay) * c.dev.cfg.TimeScale)
			c.dev.wg.Add(1)
			go c.straggle(req, dec, svc, finish, extra)
			continue
		}
		c.complete(req, dec, svc)
	}
}

// straggle completes a straggler extra past its channel finish.
// Straggler latency models a slow individual transfer (internal retries,
// ECC re-reads) — not channel occupancy — so the request waits it out
// aside while the channel serves the next queued request: one straggler
// stalls its own read and not the requests queued behind it.
func (c *channel) straggle(req *storage.Request, dec faults.Decision, svc time.Duration, finish time.Time, extra time.Duration) {
	defer c.dev.wg.Done()
	var wait errutil.Pacer // a straggler is rare: its own timer costs little
	if _, err := wait.Pace(req.Ctx, finish, time.Time{}, extra); err != nil {
		c.dev.Abandon(req, 0)
		return
	}
	c.complete(req, dec, svc+extra)
}

// complete fills the buffer and completes the request under the fault
// decision; svc is the total modeled service duration for the busy/queue
// counters.
func (c *channel) complete(req *storage.Request, dec faults.Decision, svc time.Duration) {
	filled := c.dev.Fault(req, dec)
	copy(req.Buf[:filled], c.dev.image[req.Off:])
	c.dev.Complete(req, dec, svc, filled)
}
