// Package device models the training processors: a GPU with bounded
// device memory, an asynchronous PCIe transfer engine, and a compute-time
// model per GNN architecture; or the host CPU, which trains slower
// (dramatically so for GAT — §5.1 measures 8-12x) and needs no staging
// transfer. For convergence experiments the caller runs real float32 math
// instead of the time model; for timing experiments compute is realized as
// a scaled sleep so the pipeline overlap being measured is real.
package device

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gnndrive/internal/errutil"
	"gnndrive/internal/nn"
)

// ErrDeviceOOM is returned when an allocation exceeds device memory.
var ErrDeviceOOM = errors.New("device: out of device memory")

// Kind distinguishes processor types.
type Kind int

// Processor kinds.
const (
	GPU Kind = iota
	CPU
)

// Config describes a processor.
type Config struct {
	Name string
	Kind Kind
	// MemBytes is the device-memory capacity (ignored for CPU, whose
	// feature buffer is accounted in the host budget instead).
	MemBytes int64
	// TransferBps is the host-to-device DMA bandwidth.
	TransferBps float64
	// Throughput is the modeled compute rate in "ops"/second, where ops
	// are the per-batch work units ComputeTime derives from the subgraph.
	Throughput float64
	// GATFactor multiplies GAT compute time relative to SAGE/GCN on this
	// processor (attention is disproportionately expensive on CPU).
	GATFactor float64
	// TimeScale multiplies every modeled duration (match the SSD scale).
	TimeScale float64
}

// RTX3090 models the paper's primary GPU at 1:1000 memory scale.
func RTX3090() Config {
	return Config{
		Name: "rtx3090", Kind: GPU, MemBytes: 24 << 20,
		TransferBps: 12e9, Throughput: 1.2e12, GATFactor: 1.8, TimeScale: 0.05,
	}
}

// TeslaK80 models the scalability machine's older GPU (Fig. 13): roughly
// 20x slower than the RTX 3090, so per-worker compute — not the shared
// SSD — bounds the single-worker epoch, which is what makes data
// parallelism pay off on that machine.
func TeslaK80() Config {
	return Config{
		Name: "k80", Kind: GPU, MemBytes: 12 << 20,
		TransferBps: 6e9, Throughput: 6e10, GATFactor: 1.8, TimeScale: 0.05,
	}
}

// XeonCPU models CPU-based training: ~8x slower than the 3090 on
// SAGE/GCN and disproportionately slower on GAT.
func XeonCPU() Config {
	return Config{
		Name: "xeon", Kind: CPU, MemBytes: 0,
		TransferBps: 0, Throughput: 1.5e11, GATFactor: 12, TimeScale: 0.05,
	}
}

// InstantConfig returns a zero-latency GPU for unit tests.
func InstantConfig() Config {
	return Config{Name: "test", Kind: GPU, MemBytes: 1 << 30, TransferBps: 0, Throughput: 0, GATFactor: 1, TimeScale: 0}
}

// Device is one processor instance.
type Device struct {
	cfg     Config
	memUsed atomic.Int64

	computeBusy  atomic.Int64 // nanos
	transferBusy atomic.Int64 // nanos
	bytesMoved   atomic.Int64

	// dma is the DMA engine: a FIFO server of completions.
	dma *errutil.Server[func()]
}

// New creates a device.
func New(cfg Config) *Device {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	return &Device{cfg: cfg, dma: errutil.NewServer(func(done func(), _ time.Time) { done() })}
}

// Close returns once every pending transfer has completed.
func (d *Device) Close() { d.CopySync(0) } // completions run in order

// Kind returns the processor kind.
func (d *Device) Kind() Kind { return d.cfg.Kind }

// MemBytes returns the device-memory capacity.
func (d *Device) MemBytes() int64 { return d.cfg.MemBytes }

// TimeScale returns the stretch applied to every modeled duration (1 when
// the config left it zero).
func (d *Device) TimeScale() float64 { return d.cfg.TimeScale }

// Alloc reserves n bytes of device memory; ErrDeviceOOM if it won't fit.
// CPU devices have no device memory and always succeed (the caller pins
// host memory instead).
func (d *Device) Alloc(label string, n int64) error {
	if d.cfg.Kind == CPU {
		return nil
	}
	for {
		cur := d.memUsed.Load()
		if cur+n > d.cfg.MemBytes {
			return fmt.Errorf("alloc %q of %d bytes with %d/%d used: %w",
				label, n, cur, d.cfg.MemBytes, ErrDeviceOOM)
		}
		if d.memUsed.CompareAndSwap(cur, cur+n) {
			return nil
		}
	}
}

// Free releases n bytes of device memory.
func (d *Device) Free(n int64) {
	if d.cfg.Kind == CPU {
		return
	}
	if d.memUsed.Add(-n) < 0 {
		panic("device: freed more than allocated")
	}
}

// MemUsed returns the bytes currently allocated.
func (d *Device) MemUsed() int64 { return d.memUsed.Load() }

// CopyAsync schedules an asynchronous host-to-device transfer of n bytes;
// done fires, in submission order, when the modeled DMA completes
// (cudaMemcpyAsync). A transfer due within errutil.PaceSlack with nothing
// pending before it completes on the caller before CopyAsync returns, so
// done must not take a lock the caller holds.
func (d *Device) CopyAsync(n int64, done func()) {
	var svc time.Duration
	if d.cfg.TransferBps > 0 {
		svc = time.Duration(float64(n) / d.cfg.TransferBps * float64(time.Second) * d.cfg.TimeScale)
	}
	d.transferBusy.Add(int64(svc))
	d.bytesMoved.Add(n)
	if d.dma.Push(time.Now(), svc, done) {
		d.dma.Deliver()
	}
}

// CopySync blocks for the modeled transfer time of n bytes.
func (d *Device) CopySync(n int64) time.Duration {
	start, ch := time.Now(), make(chan struct{})
	d.CopyAsync(n, func() { close(ch) })
	<-ch
	return time.Since(start)
}

// Work describes one mini-batch training step for the compute model.
type Work struct {
	Model    nn.ModelKind
	Nodes    int64
	Edges    int64
	InDim    int
	Hidden   int
	Classes  int
	Layers   int
	Backward bool // training (fwd+bwd+update) vs inference
}

// ops estimates the work units of one step: per layer, edge aggregation
// plus the dense combine matmul, from InDim through Hidden to Classes.
func (w Work) ops() float64 {
	layers := w.Layers
	if layers <= 0 {
		layers = 3
	}
	var total float64
	for l, in := 0, w.InDim; l < layers; l++ {
		out := w.Hidden
		if l == layers-1 {
			out = w.Classes
		}
		total += float64(w.Edges) * float64(in)                    // aggregate
		total += 2 * float64(w.Nodes) * float64(in) * float64(out) // combine
		in = out
	}
	if w.Backward {
		total *= 3 // fwd + bwd + optimizer, the usual 3x rule
	}
	return total
}

// ComputeTime returns the modeled duration of one step.
func (d *Device) ComputeTime(w Work) time.Duration {
	if d.cfg.Throughput <= 0 {
		return 0
	}
	t := w.ops() / d.cfg.Throughput
	if w.Model == nn.GAT {
		t *= d.cfg.GATFactor
	}
	return time.Duration(t * float64(time.Second) * d.cfg.TimeScale)
}

// Compute blocks for the modeled step duration and accounts it as device
// busy time. It returns the modeled duration.
func (d *Device) Compute(w Work) time.Duration {
	t := d.ComputeTime(w)
	time.Sleep(t)
	d.computeBusy.Add(int64(t))
	return t
}

// AddComputeBusy accounts externally measured (real-math) compute time.
func (d *Device) AddComputeBusy(t time.Duration) { d.computeBusy.Add(int64(t)) }

// ComputeBusy returns cumulative modeled compute time.
func (d *Device) ComputeBusy() time.Duration { return time.Duration(d.computeBusy.Load()) }

// TransferBusy returns cumulative modeled DMA time.
func (d *Device) TransferBusy() time.Duration { return time.Duration(d.transferBusy.Load()) }

// BytesMoved returns cumulative DMA traffic.
func (d *Device) BytesMoved() int64 { return d.bytesMoved.Load() }
