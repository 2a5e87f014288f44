// Package layout is the feature-addressing seam between the graph layer
// and storage: an Addresser maps a node ID to the device offset of its
// feature vector, so nothing above this package assumes node*dim
// arithmetic. The default Strided addresser reproduces the classic dense
// table; Packed rearranges vectors into the order a first epoch's sample
// trace touched them (DiskGNN-style offline packing), turning a cold
// mini-batch's scattered reads into a few large sequential ones.
package layout

// Addresser maps node IDs to feature offsets. Every vector is one
// contiguous FeatBytes-long span on the device. Implementations must be
// safe for concurrent use (the extract stage plans from many goroutines).
type Addresser interface {
	// FeatBytes returns the byte length of one feature vector.
	FeatBytes() int
	// NumNodes returns the number of addressable nodes.
	NumNodes() int64
	// NodeOffset returns the absolute device byte offset of node v's
	// vector.
	NodeOffset(v int64) int64
}

// Strided is the classic dense layout: node v's vector is at
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

// NodeOffset implements Addresser.
func (s Strided) NodeOffset(v int64) int64 { return s.Base + v*int64(s.Feat) }

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
