package layout

import (
	"bytes"
	"errors"
	"fmt"

	"gnndrive/internal/storage"
)

// Trace records the node-access order of a sampling epoch: the packer
// places feature vectors in first-touch order, so the nodes a batch
// loads together sit together on disk (DiskGNN's batch-aware packing).
// It is the batches' node lists back to back, repeats included; NewPacked
// places each node at its first occurrence.
type Trace struct {
	order []int64
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// AddBatch appends one mini-batch's node list.
func (t *Trace) AddBatch(nodes []int64) { t.order = append(t.order, nodes...) }

// PackOptions is empty: the packer has nothing left to tune. It stays
// because PackInPlace's callers in the benchmark harness pass
// PackOptions{}.
type PackOptions struct{}

// Packed is the packed-layout Addresser: feature vectors laid
// back-to-back in trace order (cold tail in ascending node ID).
// Immutable after construction, hence safe for concurrent use.
type Packed struct {
	base int64
	feat int
	// off[v] is node v's byte offset relative to base.
	off []int64
}

// PackedAt rebinds a saved packed mapping to a feature region at device
// offset base: off[v] is node v's offset into the region, and every
// vector must lie inside the len(off)-node region.
func PackedAt(base int64, featBytes int, off []int64) (*Packed, error) {
	last := (int64(len(off)) - 1) * int64(featBytes) // where the region's last vector starts
	for v, o := range off {
		// A negative offset compares above last as unsigned.
		if uint64(o) > uint64(last) {
			return nil, fmt.Errorf("layout: node %d at offset %d, outside the feature region", v, o)
		}
	}
	return &Packed{base: base, feat: featBytes, off: off}, nil
}

// NewPacked computes the packed mapping for numNodes vectors of
// featBytes bytes each at device offset base: traced nodes first in
// first-touch order, untraced nodes after in ascending ID. A nil trace
// packs in pure ID order (identity permutation). The data itself is not
// moved; see PackInPlace.
func NewPacked(base int64, featBytes int, numNodes int64, trace *Trace) (*Packed, error) {
	if featBytes <= 0 || numNodes <= 0 {
		return nil, fmt.Errorf("layout: pack %d nodes of %d bytes", numNodes, featBytes)
	}
	p := &Packed{base: base, feat: featBytes, off: make([]int64, numNodes)}
	for i := range p.off {
		p.off[i] = -1
	}
	next := int64(0)
	place := func(v int64) error {
		if v < 0 || v >= numNodes {
			return fmt.Errorf("layout: traced node %d out of range [0,%d)", v, numNodes)
		}
		if p.off[v] >= 0 {
			return nil
		}
		p.off[v] = next
		next += int64(featBytes)
		return nil
	}
	if trace != nil {
		for _, v := range trace.order {
			if err := place(v); err != nil {
				return nil, err
			}
		}
	}
	for v := int64(0); v < numNodes; v++ {
		if err := place(v); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// FeatBytes implements Addresser.
func (p *Packed) FeatBytes() int { return p.feat }

// NumNodes implements Addresser.
func (p *Packed) NumNodes() int64 { return int64(len(p.off)) }

// NodeOffset implements Addresser.
func (p *Packed) NodeOffset(v int64) int64 { return p.base + p.off[v] }

// PackInPlace permutes an existing strided feature region on dev —
// numNodes vectors of featBytes at base — into the packed order and
// returns the bound Packed addresser. The region's total length is
// unchanged (packing is a pure permutation), so no extra device capacity
// is needed; the whole region is staged through host memory, which at
// this repo's 1:1000 dataset scale is at most a few hundred megabytes.
// After writing, a sample of nodes is read back through direct I/O and
// compared, so a packing bug fails the build rather than training.
func PackInPlace(dev storage.Backend, base int64, featBytes int, numNodes int64, trace *Trace, _ PackOptions) (*Packed, error) {
	p, err := NewPacked(base, featBytes, numNodes, trace)
	if err != nil {
		return nil, err
	}
	total := numNodes * int64(featBytes)
	src := make([]byte, total)
	if err := readChunked(dev, src, base); err != nil {
		return nil, fmt.Errorf("layout: pack read: %w", err)
	}
	dst := make([]byte, total)
	for v := int64(0); v < numNodes; v++ {
		copy(dst[p.off[v]:p.off[v]+int64(featBytes)], src[v*int64(featBytes):])
	}
	if err := writeChunked(dev, dst, base); err != nil {
		return nil, fmt.Errorf("layout: pack write: %w", err)
	}
	if err := p.verify(dev, src); err != nil {
		return nil, err
	}
	return p, nil
}

// verify re-reads a spread of nodes through direct I/O — the path
// training uses — and compares against the pre-pack strided bytes. Each
// node is one read of the sector-aligned window covering its vector;
// backends that refuse direct I/O for the window degrade to a buffered
// read.
func (p *Packed) verify(dev storage.Backend, src []byte) error {
	n := p.NumNodes()
	step := n/64 + 1
	sector := dev.SectorSize()
	ss := int64(sector)
	buf := storage.AlignedBuf((p.feat/sector+2)*sector, sector)
	for v := int64(0); v < n; v += step {
		off := p.NodeOffset(v)
		aStart := off / ss * ss
		aEnd := (off + int64(p.feat) + ss - 1) / ss * ss
		_, err := dev.ReadDirect(buf[:aEnd-aStart], aStart)
		if errors.Is(err, storage.ErrUnaligned) {
			_, err = dev.ReadAt(buf[:aEnd-aStart], aStart)
		}
		if err != nil {
			return fmt.Errorf("layout: pack verify node %d: %w", v, err)
		}
		got := buf[off-aStart : off-aStart+int64(p.feat)]
		want := src[v*int64(p.feat) : (v+1)*int64(p.feat)]
		if !bytes.Equal(got, want) {
			return fmt.Errorf("layout: pack verify node %d: packed bytes differ from source", v)
		}
	}
	return nil
}

func readChunked(dev storage.Backend, buf []byte, off int64) error {
	const chunk = 1 << 20
	for done := 0; done < len(buf); done += chunk {
		end := done + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if err := dev.ReadRaw(buf[done:end], off+int64(done)); err != nil {
			return err
		}
	}
	return nil
}

func writeChunked(dev storage.Backend, buf []byte, off int64) error {
	const chunk = 1 << 20
	for done := 0; done < len(buf); done += chunk {
		end := done + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if err := dev.WriteRaw(buf[done:end], off+int64(done)); err != nil {
			return err
		}
	}
	return nil
}
