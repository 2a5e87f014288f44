package layout

import (
	"bytes"
	"fmt"

	"gnndrive/internal/storage"
)

// DefaultSegmentBytes is the packed segment payload size: large enough
// that a cold mini-batch's features span only a handful of segments,
// small enough that the planner's coalescing window (MaxJointRead) still
// slices a segment into several parallel reads.
const DefaultSegmentBytes = 256 << 10

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

// PackOptions tune the packer.
type PackOptions struct {
	// SegmentBytes is the segment payload size; 0 means
	// DefaultSegmentBytes. Must be a positive multiple of 512 so segment
	// boundaries stay sector-addressable.
	SegmentBytes int
}

func (o PackOptions) segment() (int, error) {
	s := o.SegmentBytes
	if s == 0 {
		s = DefaultSegmentBytes
	}
	if s <= 0 || s%512 != 0 {
		return 0, fmt.Errorf("layout: segment bytes %d must be a positive multiple of 512", s)
	}
	return s, nil
}

// Packed is the packed-layout Addresser: feature vectors laid
// back-to-back in trace order (cold tail in ascending node ID), split
// logically into fixed-size segments. A vector crossing a segment
// boundary is reported as two extents; they are physically adjacent, so
// planners merge them back into one span. Immutable after construction,
// hence safe for concurrent use.
type Packed struct {
	base int64
	feat int
	seg  int
	// off[v] is node v's byte offset relative to base.
	off []int64
}

// NewPacked computes the packed mapping for numNodes vectors of
// featBytes bytes each at device offset base: traced nodes first in
// first-touch order, untraced nodes after in ascending ID. A nil trace
// packs in pure ID order (identity permutation). The data itself is not
// moved; see Repack / PackInPlace.
func NewPacked(base int64, featBytes int, numNodes int64, trace *Trace, opts PackOptions) (*Packed, error) {
	if featBytes <= 0 || numNodes <= 0 {
		return nil, fmt.Errorf("layout: pack %d nodes of %d bytes", numNodes, featBytes)
	}
	seg, err := opts.segment()
	if err != nil {
		return nil, err
	}
	if featBytes > seg {
		return nil, fmt.Errorf("layout: feature vector (%d bytes) exceeds segment (%d bytes)", featBytes, seg)
	}
	p := &Packed{base: base, feat: featBytes, seg: seg, off: make([]int64, numNodes)}
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

// Base returns the device offset the packed region starts at.
func (p *Packed) Base() int64 { return p.base }

// SegmentBytes returns the segment payload size.
func (p *Packed) SegmentBytes() int { return p.seg }

// NodeOffset returns node v's byte offset relative to Base.
func (p *Packed) NodeOffset(v int64) int64 { return p.off[v] }

// Extents implements Addresser, splitting at segment boundaries.
func (p *Packed) Extents(v int64, dst []Extent) []Extent {
	rel := p.off[v]
	featOff := 0
	for featOff < p.feat {
		segEnd := (rel/int64(p.seg) + 1) * int64(p.seg)
		n := p.feat - featOff
		if int64(n) > segEnd-rel {
			n = int(segEnd - rel)
		}
		dst = append(dst, Extent{Off: p.base + rel, FeatOff: featOff, Len: n})
		rel += int64(n)
		featOff += n
	}
	return dst
}

// PackInPlace permutes an existing strided feature region on dev —
// numNodes vectors of featBytes at base — into the packed order and
// returns the bound Packed addresser. The region's total length is
// unchanged (packing is a pure permutation), so no extra device capacity
// is needed; the whole region is staged through host memory, which at
// this repo's 1:1000 dataset scale is at most a few hundred megabytes.
// After writing, a sample of nodes is read back through the direct-I/O
// segment reader and compared, so a packing bug fails the build rather
// than training.
func PackInPlace(dev storage.Backend, base int64, featBytes int, numNodes int64, trace *Trace, opts PackOptions) (*Packed, error) {
	p, err := NewPacked(base, featBytes, numNodes, trace, opts)
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

// verify re-reads a spread of nodes through the direct-I/O segment
// reader — the same path training uses — and compares against the
// pre-pack strided bytes.
func (p *Packed) verify(dev storage.Backend, src []byte) error {
	n := p.NumNodes()
	step := n/64 + 1
	r := NewSegmentReader(dev, p)
	sector := dev.SectorSize()
	buf := storage.AlignedBuf((p.feat/sector+2)*sector, sector)
	var exts []Extent
	got := make([]byte, 0, p.feat)
	for v := int64(0); v < n; v += step {
		exts = p.Extents(v, exts[:0])
		got = got[:0]
		for _, e := range exts {
			start, _, err := r.ReadExtent(buf, e)
			if err != nil {
				return fmt.Errorf("layout: pack verify node %d: %w", v, err)
			}
			if start < 0 || e.Len < 0 || start+e.Len > len(buf) {
				return fmt.Errorf("layout: pack verify node %d: extent overruns the %d-byte read buffer", v, len(buf))
			}
			got = append(got, buf[start:start+e.Len]...)
		}
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
