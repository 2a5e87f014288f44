package main

import (
	"hash/crc32"
	"os"
	"runtime"
	"time"
)

// The reference kernel is a fixed piece of work, owned by the benchmark
// and never by the program, whose duration says how fast this machine is
// running right now. The gated timings of the CPU-bound workloads are
// divided by it.
//
// Why it exists: the sandbox is a few vCPUs of a shared host, and the same
// epoch of the same binary takes 1.0 to 2.5 times its undisturbed time
// depending on what the neighbours do, in phases that last from a second
// to many minutes — longer than a run, so no statistic taken inside one
// run (median, fastest-of-N) repeats between runs. A reading of the kernel
// next to every epoch moves with the same phases, and the ratio repeats
// (README.md has the measurements).
//
// The kernel has three parts, each run on every worker at once because a
// phase hits the two vCPUs differently:
//
//	refMatmul   float32 matmul in the three loop forms real training spends
//	            its time in (tensor's a*bT dot products, a*b row updates,
//	            aT*b row updates), operands in the private cache
//	refCopy     4 MB copy + CRC32C of 1 MB — staging copies and verify
//	refPread    4 KB preads of a memory file — the syscall read path
//
// A workload names the mix of parts that resembles its bottleneck.
const (
	refMatmul = iota
	refCopy
	refPread
	refParts
)

// refNominal is each part's duration on the 2-vCPU reference sandbox when
// nothing disturbs it, in seconds. Dividing by it makes every part read 1
// there, so a mix weighs its parts equally and a normalised timing keeps
// the magnitude of seconds. These constants are part of the metric: change
// them and every normalised timing shifts.
var refNominal = [refParts]float64{0.0105, 0.0085, 0.0080}

// refMix weighs the kernel's parts; a mix without weights means "do not
// normalise".
type refMix struct {
	name    string
	weights [refParts]float64
}

var (
	refNone    = refMix{name: "none"}
	refCompute = refMix{"compute", [refParts]float64{refMatmul: 1}}
	refIOPath  = refMix{"iopath", [refParts]float64{1, 1, 1}}
	// refSetup normalises every workload's set-up: dataset generation,
	// packing and checksumming are memory writes, copies and file I/O.
	refSetup = refIOPath
)

func (m refMix) none() bool { return m.weights == [refParts]float64{} }

// refReading is one run of the kernel: seconds per part, mean over workers.
type refReading [refParts]float64

// index is the machine's slowdown under mix m at the time of the reading:
// 1 on the undisturbed reference sandbox, 2 when that kind of work takes
// twice as long.
func (r refReading) index(m refMix) float64 {
	var s, w float64
	for k := range r {
		s += m.weights[k] * r[k] / refNominal[k]
		w += m.weights[k]
	}
	return s / w
}

// between is the index that applies to an interval bracketed by readings a
// and b.
func between(a, b refReading, m refMix) float64 { return (a.index(m) + b.index(m)) / 2 }

const (
	refRows, refInner, refCols = 700, 128, 64
	refCopyBytes               = 4 << 20
	refCRCBytes                = 1 << 20
	refCopyReps                = 20
	refPreads                  = 6000
	refFilePages               = 2048
	refPage                    = 4096
)

var refCRCTable = crc32.MakeTable(crc32.Castagnoli)

// refWorker is one goroutine's share of the kernel, with its own operands.
type refWorker struct {
	id       int
	a, b, c  []float32 // rows x inner, cols x inner, rows x cols
	g        []float32 // inner x cols
	src, dst []byte
	page     []byte
	f        *os.File
	sum      uint32 // keeps the work observable
	cmd      chan int
	done     chan time.Duration
}

func (w *refWorker) loop() {
	for part := range w.cmd {
		t := time.Now()
		w.run(part)
		w.done <- time.Since(t)
	}
	close(w.done)
}

func (w *refWorker) run(part int) {
	switch part {
	case refMatmul:
		// c = a*bT, as tensor.matMulT2Range: one dot product per element.
		for i := 0; i < refRows; i++ {
			arow := w.a[i*refInner : (i+1)*refInner]
			crow := w.c[i*refCols : (i+1)*refCols]
			for j := range crow {
				brow := w.b[j*refInner : (j+1)*refInner]
				var s float32
				for k, av := range arow {
					s += av * brow[k]
				}
				crow[j] = s
			}
		}
		// c += a*b (b read as inner x cols), as tensor.matMulRange: one
		// row update per element of a.
		for i := 0; i < refRows; i++ {
			arow := w.a[i*refInner : (i+1)*refInner]
			crow := w.c[i*refCols : (i+1)*refCols]
			for k, av := range arow {
				brow := w.b[k*refCols : (k+1)*refCols]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
		// g = aT*c, as tensor.MatMulT1Into: the weight gradient.
		clear(w.g)
		for k := 0; k < refRows; k++ {
			arow := w.a[k*refInner : (k+1)*refInner]
			crow := w.c[k*refCols : (k+1)*refCols]
			for i, av := range arow {
				grow := w.g[i*refCols : (i+1)*refCols]
				for j, cv := range crow {
					grow[j] += av * cv
				}
			}
		}
	case refCopy:
		for r := 0; r < refCopyReps; r++ {
			copy(w.dst, w.src)
			w.sum += crc32.Checksum(w.dst[:refCRCBytes], refCRCTable)
		}
	case refPread:
		for i := 0; i < refPreads; i++ {
			off := int64((i*37+w.id*1000)%refFilePages) * refPage
			if _, err := w.f.ReadAt(w.page, off); err != nil {
				panic("bench: reference kernel: " + err.Error())
			}
			w.sum += uint32(w.page[0])
		}
	}
}

// refKernel owns the workers. They are long-lived so that a reading
// allocates nothing and starts no goroutine inside a measured window.
type refKernel struct {
	workers []*refWorker
	f       *os.File
	// spent is the wall time all readings took, for callers whose own
	// timing brackets them.
	spent time.Duration
	// log keeps every reading for the result file.
	log []refReading
}

// newRefKernel prepares the kernel; its pread target is a data file of
// the run's placement (a memory file by default).
func newRefKernel(pl *placement) (*refKernel, error) {
	path, err := pl.dataFile("ref.dat")
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(make([]byte, refFilePages*refPage)); err != nil {
		f.Close()
		return nil, err
	}
	k := &refKernel{f: f}
	for id := 0; id < min(2, runtime.GOMAXPROCS(0)); id++ {
		w := &refWorker{
			id: id, f: f,
			a: make([]float32, refRows*refInner), b: make([]float32, refCols*refInner),
			c: make([]float32, refRows*refCols), g: make([]float32, refInner*refCols),
			src: make([]byte, refCopyBytes), dst: make([]byte, refCopyBytes),
			page: make([]byte, refPage),
			cmd:  make(chan int), done: make(chan time.Duration),
		}
		for i := range w.a {
			w.a[i] = float32(i%97) * 0.01
		}
		for i := range w.b {
			w.b[i] = float32(i%89) * 0.01
		}
		for i := range w.src {
			w.src[i] = byte(i * 31)
		}
		go w.loop()
		k.workers = append(k.workers, w)
	}
	k.read() // first touch of every page happens here, not in a reading that counts
	k.log = make([]refReading, 0, 256)
	return k, nil
}

// read runs the kernel once: every part in turn, on all workers at once.
func (k *refKernel) read() refReading {
	t0 := time.Now()
	var r refReading
	for part := 0; part < refParts; part++ {
		for _, w := range k.workers {
			w.cmd <- part
		}
		var sum time.Duration
		for _, w := range k.workers {
			sum += <-w.done
		}
		r[part] = sum.Seconds() / float64(len(k.workers))
	}
	k.spent += time.Since(t0)
	k.log = append(k.log, r)
	return r
}

// samples returns every reading so far, one series per part, for the
// result file: what the machine did during the run.
func (k *refKernel) samples(into map[string][]float64) {
	for part, name := range [refParts]string{"ref_matmul_s", "ref_copy_s", "ref_pread_s"} {
		for _, r := range k.log {
			into[name] = append(into[name], r[part])
		}
	}
}

// close stops the workers and waits for them.
func (k *refKernel) close() {
	for _, w := range k.workers {
		close(w.cmd)
		<-w.done
	}
	k.f.Close()
}
