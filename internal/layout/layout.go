// Package layout is the feature-addressing seam between the graph layer
// and storage: an Addresser maps a node ID to the device extents holding
// its feature vector, so nothing above this package assumes node*dim
// arithmetic. The default Strided addresser reproduces the classic dense
// table; Packed rearranges vectors into segment-sized runs learned from a
// first epoch's sample trace (DiskGNN-style offline packing), turning a
// cold mini-batch's scattered reads into a few large sequential ones.
package layout

import "fmt"

// Extent is one contiguous device span holding part (or all) of a node's
// feature vector.
type Extent struct {
	// Off is the absolute device byte offset of the span.
	Off int64
	// FeatOff is the byte offset within the node's feature vector that
	// this span supplies (0 for the first or only extent).
	FeatOff int
	// Len is the span length in bytes.
	Len int
}

// Addresser maps node IDs to feature extents. Implementations must be
// safe for concurrent use (the extract stage plans from many
// goroutines); every node's extents must cover exactly [0, FeatBytes)
// with no gaps, in ascending FeatOff order.
type Addresser interface {
	// FeatBytes returns the byte length of one feature vector.
	FeatBytes() int
	// NumNodes returns the number of addressable nodes.
	NumNodes() int64
	// Extents appends node v's extents to dst and returns it. A node in
	// a strided table yields one extent; a packed node crossing a
	// segment boundary yields two.
	Extents(v int64, dst []Extent) []Extent
}

// Strided is the classic dense layout: node v's vector is one extent at
// Base + v*Feat. It is the default Addresser every dataset starts with;
// the read path plans over it exactly as over any other addresser.
type Strided struct {
	// Base is the device offset of the feature table.
	Base int64
	// Feat is the per-node feature vector byte length.
	Feat int
	// Nodes is the node count.
	Nodes int64
}

// FeatBytes implements Addresser.
func (s Strided) FeatBytes() int { return s.Feat }

// NumNodes implements Addresser.
func (s Strided) NumNodes() int64 { return s.Nodes }

// Extents implements Addresser: always exactly one extent.
func (s Strided) Extents(v int64, dst []Extent) []Extent {
	return append(dst, Extent{Off: s.Base + v*int64(s.Feat), FeatOff: 0, Len: s.Feat})
}

// ContiguousRange reports the device offset of nodes [lo, hi) when the
// addresser stores them as one contiguous ascending run (the strided
// table), and ok=false otherwise. Sequential-scan consumers (MariusGNN's
// partition loads) use it instead of assuming node*dim arithmetic.
func ContiguousRange(a Addresser, lo, hi int64) (off int64, ok bool) {
	s, ok := a.(Strided)
	if !ok {
		return 0, false
	}
	if lo < 0 || hi > s.Nodes || lo > hi {
		return 0, false
	}
	return s.Base + lo*int64(s.Feat), true
}

// NodeSpan resolves node v to a single contiguous device span, merging
// physically adjacent extents. Layouts whose extents are not adjacent
// (none today: Strided is one extent, Packed splits only at segment
// boundaries, which are contiguous) return an error — the async extract
// path marks a node valid when its last byte lands and needs the pieces
// to complete together.
func NodeSpan(a Addresser, v int64, scratch []Extent) (off int64, n int, ext []Extent, err error) {
	ext = a.Extents(v, scratch[:0])
	if len(ext) == 0 {
		return 0, 0, ext, fmt.Errorf("layout: node %d has no extents", v)
	}
	off = ext[0].Off
	n = ext[0].Len
	if ext[0].FeatOff != 0 {
		return 0, 0, ext, fmt.Errorf("layout: node %d extents start at feature offset %d", v, ext[0].FeatOff)
	}
	for _, e := range ext[1:] {
		if e.Off != off+int64(n) || e.FeatOff != n {
			return 0, 0, ext, fmt.Errorf("layout: node %d extents are not physically adjacent (%d+%d then %d)",
				v, off, n, e.Off)
		}
		n += e.Len
	}
	if n != a.FeatBytes() {
		return 0, 0, ext, fmt.Errorf("layout: node %d extents cover %d of %d bytes", v, n, a.FeatBytes())
	}
	return off, n, ext, nil
}
