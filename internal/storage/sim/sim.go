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
//     scaled by TimeScale so experiments finish in seconds;
//   - the backing store is an in-memory byte image, so reads return real
//     bytes and real training can run through the same path;
//   - per-request queueing delay is tracked, reproducing the latency
//     growth with thread count / I/O depth in Fig. B.1.
//
// Writes are for dataset setup only and are untimed.
package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// Faults, when non-nil, attaches a fault-injection schedule at
	// construction (equivalent to SetInjector(faults.NewInjector(*Faults))
	// right after New), so call sites that build devices from a Config
	// need no changes to run under injected failures.
	Faults *faults.Config
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
// storage.Backend.
type Device struct {
	cfg      Config
	image    []byte
	channels []*channel

	reads        atomic.Int64
	bytesRead    atomic.Int64
	faults       atomic.Int64
	busyNanos    atomic.Int64
	queueNanos   atomic.Int64
	latencyNanos atomic.Int64

	storage.Injection

	// closeMu orders Submit's channel sends before Close's channel close:
	// senders hold the read side, Close takes the write side, so a request
	// can never race onto a closed queue.
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
}

var _ storage.Backend = (*Device)(nil)

type channel struct {
	dev       *Device
	queue     chan *storage.Request
	busyUntil time.Time
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
	if cfg.Faults != nil {
		d.SetInjector(faults.NewInjector(*cfg.Faults))
	}
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
	d.closeMu.Lock()
	if d.closed {
		d.closeMu.Unlock()
		return nil
	}
	d.closed = true
	d.closeMu.Unlock()
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
	if err := d.check(p, off); err != nil {
		return 0, err
	}
	start := time.Now()
	svc := d.serviceTime(len(p))
	if svc > 0 {
		time.Sleep(svc)
	}
	d.WriteAt(p, off)
	d.busyNanos.Add(int64(svc))
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
	if err := d.check(req.Buf, req.Off); err != nil {
		req.Err = err
		if req.Done != nil {
			req.Done(req)
		}
		return
	}
	d.closeMu.RLock()
	if d.closed {
		d.closeMu.RUnlock()
		req.Err = storage.ErrClosed
		if req.Done != nil {
			req.Done(req)
		}
		return
	}
	req.Submitted = time.Now()
	c := d.channels[(req.Off/int64(d.cfg.SectorSize))%int64(len(d.channels))]
	c.queue <- req
	d.closeMu.RUnlock()
}

func (d *Device) check(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(d.image)) {
		return fmt.Errorf("sim: read [%d,%d) outside capacity %d", off, off+int64(len(p)), len(d.image))
	}
	return nil
}

// ReadAt performs a synchronous read, blocking the caller for the modeled
// queueing + service time. It returns the time the caller was blocked.
func (d *Device) ReadAt(p []byte, off int64) (time.Duration, error) {
	return d.ReadAtCtx(nil, p, off)
}

// ReadAtCtx is ReadAt bounded by ctx: a cancellation interrupts the
// modeled service wait (including injected straggler delays) and the
// read returns the context's error promptly.
func (d *Device) ReadAtCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	return storage.SyncRead(ctx, d, p, off, false)
}

// ReadDirect is ReadAt with the direct-I/O alignment constraint: offset
// and length must be multiples of the sector size.
func (d *Device) ReadDirect(p []byte, off int64) (time.Duration, error) {
	return d.ReadDirectCtx(nil, p, off)
}

// ReadDirectCtx is ReadDirect bounded by ctx, like ReadAtCtx.
func (d *Device) ReadDirectCtx(ctx context.Context, p []byte, off int64) (time.Duration, error) {
	if err := storage.CheckAlign(off, len(p), d.cfg.SectorSize); err != nil {
		return 0, err
	}
	return d.ReadAtCtx(ctx, p, off)
}

// Stats returns a snapshot of the cumulative counters.
func (d *Device) Stats() storage.Stats {
	return storage.Stats{
		Reads:        d.reads.Load(),
		BytesRead:    d.bytesRead.Load(),
		Faults:       d.faults.Load(),
		BusyTime:     time.Duration(d.busyNanos.Load()),
		QueueTime:    time.Duration(d.queueNanos.Load()),
		TotalLatency: time.Duration(d.latencyNanos.Load()),
	}
}

// sleepSlack batches modeled delays: a channel only sleeps once its
// modeled clock runs ahead of wall-clock by this much, so sub-millisecond
// service times don't pay one scheduler wakeup per request. Aggregate
// throughput and completion times stay governed by busyUntil.
const sleepSlack = 500 * time.Microsecond

func (c *channel) run() {
	defer c.dev.wg.Done()
	for req := range c.queue {
		now := time.Now()
		svc := c.dev.serviceTime(len(req.Buf))
		dec := c.dev.Decide(req.Off, len(req.Buf))
		start := now
		if c.busyUntil.After(now) {
			start = c.busyUntil
		}
		finish := start.Add(svc)
		c.busyUntil = finish
		if dec.Delay > 0 {
			// Straggler latency models a slow individual transfer (internal
			// retries, ECC re-reads) — not channel occupancy. The request is
			// parked aside for the extra modeled delay while the channel
			// serves the next queued request, so a duplicate (hedged) read
			// of the same range can genuinely overtake the straggler.
			extra := time.Duration(float64(dec.Delay) * c.dev.cfg.TimeScale)
			c.dev.wg.Add(1)
			go func(req *storage.Request, dec faults.Decision, svc time.Duration, finish time.Time) {
				defer c.dev.wg.Done()
				c.finish(req, dec, svc, finish)
			}(req, dec, svc+extra, finish.Add(extra))
			continue
		}
		c.finish(req, dec, svc, finish)
	}
}

// finish waits out the request's modeled completion time (ctx-aware),
// then fills the buffer, applies the fault decision, and completes it.
// svc is the total modeled service duration for the busy/queue counters.
func (c *channel) finish(req *storage.Request, dec faults.Decision, svc time.Duration, finish time.Time) {
	abandoned := false
	if wait := time.Until(finish); wait > sleepSlack {
		if req.Ctx == nil {
			time.Sleep(wait)
		} else {
			// Context-aware service wait: a cancelled request (epoch
			// teardown) is not held hostage by a straggler's modeled
			// delay. The channel's modeled clock already advanced, so
			// the device stays "busy" for later requests either way.
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-req.Ctx.Done():
				timer.Stop()
				abandoned = true
			}
		}
	}
	if abandoned {
		req.Err = fmt.Errorf("sim: read [%d,%d) abandoned: %w",
			req.Off, req.Off+int64(len(req.Buf)), req.Ctx.Err())
		req.Latency = time.Since(req.Submitted)
		c.dev.reads.Add(1)
		c.dev.latencyNanos.Add(int64(req.Latency))
		if req.Done != nil {
			req.Done(req)
		}
		return
	}
	filled := len(req.Buf)
	if dec.Err != nil {
		// Short reads deliver a prefix; other faults deliver nothing.
		filled = dec.Bytes
		req.Err = dec.Err
		c.dev.faults.Add(1)
	}
	copy(req.Buf[:filled], c.dev.image[req.Off:req.Off+int64(filled)])
	if req.Err == nil {
		// Silent corruption flips a bit of the returned bytes, not of
		// the image: the medium is fine, the transfer lied. Counted as
		// a fault even though the request reports success.
		if dec.Corrupt {
			c.dev.faults.Add(1)
		}
		faults.ApplyCorruption(dec, req.Buf[:filled])
	}
	req.Latency = time.Since(req.Submitted)
	c.dev.reads.Add(1)
	c.dev.bytesRead.Add(int64(filled))
	c.dev.busyNanos.Add(int64(svc))
	if q := req.Latency - svc; q > 0 {
		c.dev.queueNanos.Add(int64(q))
	}
	c.dev.latencyNanos.Add(int64(req.Latency))
	if req.Done != nil {
		req.Done(req)
	}
}
