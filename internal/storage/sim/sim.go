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
//     channel is an errutil.Server, serving its queue in FIFO order on
//     the modeled clock, so a deep queue keeps it busy back to back. A
//     channel is not a goroutine: a read due at once completes on its
//     submitter, the rest from the channel's timer;
//   - the backing store is an in-memory byte image, so reads return real
//     bytes and real training can run through the same path;
//   - per-request queueing delay is tracked, reproducing the latency
//     growth with thread count / I/O depth in Fig. B.1.
//
// Writes are for dataset setup only and are untimed.
package sim

import (
	"fmt"
	"sync/atomic"
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
	channels []*errutil.Server[read]

	storage.Injection
	storage.Counters
	*storage.SyncReads

	// fence orders admissions before Close. open counts the reads
	// admitted and not yet completed, plus one until Close; whoever
	// takes it to zero signals drained, on which Close waits.
	fence   storage.Fence
	open    atomic.Int64
	drained chan struct{}
}

var _ storage.Backend = (*Device)(nil)

// read is one admitted read on its channel.
type read struct {
	req *storage.Request
	dec faults.Decision
	svc time.Duration
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
	d := &Device{cfg: cfg, image: make([]byte, capacity), drained: make(chan struct{}, 1)}
	d.SyncReads = storage.NewSyncReads(d.Submit, cfg.SectorSize)
	d.channels = make([]*errutil.Server[read], cfg.Channels)
	for i := range d.channels {
		d.channels[i] = errutil.NewServer(d.serve)
	}
	d.open.Store(1)
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

// Close returns once every admitted read, stragglers included, has
// completed; requests submitted afterwards complete with ErrClosed.
func (d *Device) Close() error {
	if d.fence.Shut() && d.open.Add(-1) != 0 {
		<-d.drained
	}
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
// on completion: on the caller before Submit returns when the read is due
// within errutil.PaceSlack and its channel is idle, else from the
// channel's timer. Requests are striped across channels by offset so
// sequential streams still engage all channels sector-interleaved.
// Submitting to a closed device completes the request with ErrClosed.
func (d *Device) Submit(req *storage.Request) {
	var idle *errutil.Server[read]
	d.fence.Admit([]*storage.Request{req}, d.Capacity(), func(req *storage.Request) {
		d.open.Add(1)
		c := d.channels[(req.Off/int64(d.cfg.SectorSize))%int64(len(d.channels))]
		r := read{req, d.Decide(req.Off, len(req.Buf)), d.serviceTime(len(req.Buf))}
		if c.Push(req.Submitted, r.svc, r) {
			idle = c
		}
	})
	// Delivered only now, with the fence released: a Done may submit
	// again or close the device.
	if idle != nil {
		idle.Deliver()
	}
}

// serve completes a read its channel delivers at its modeled finish. A
// read whose ctx was cancelled meanwhile is abandoned; the channel stayed
// busy for it either way.
func (d *Device) serve(r read, finish time.Time) {
	switch {
	case r.req.Ctx != nil && r.req.Ctx.Err() != nil:
		d.Abandon(r.req, 0)
	case r.dec.Delay > 0:
		go d.straggle(r, finish)
		return
	default:
		d.complete(r, r.svc)
	}
	d.done()
}

// straggle completes a straggler its extra delay past its channel finish.
// Straggler latency models a slow individual transfer (internal retries,
// ECC re-reads) — not channel occupancy — so the read waits it out aside
// while the channel serves the next queued read: one straggler stalls
// its own read and not the reads queued behind it.
func (d *Device) straggle(r read, finish time.Time) {
	extra := time.Duration(float64(r.dec.Delay) * d.cfg.TimeScale)
	if errutil.Sleep(r.req.Ctx, time.Until(finish)+extra) != nil {
		d.Abandon(r.req, 0)
	} else {
		d.complete(r, r.svc+extra)
	}
	d.done()
}

// complete fills the buffer and completes the read under its fault
// decision; svc is the total modeled service duration for the busy/queue
// counters.
func (d *Device) complete(r read, svc time.Duration) {
	filled := d.Fault(r.req, r.dec)
	copy(r.req.Buf[:filled], d.image[r.req.Off:])
	d.Complete(r.req, r.dec, svc, filled)
}

// done retires one completed read; the last, after Close, wakes Close.
func (d *Device) done() {
	if d.open.Add(-1) == 0 {
		d.drained <- struct{}{}
	}
}
