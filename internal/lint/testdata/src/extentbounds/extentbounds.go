// Package extentbounds is the fixture corpus for the extentbounds
// analyzer: offsets that came out of the layout addresser (Extents /
// NodeOffset results, Extent field reads) derive from on-disk index
// bytes and must be bounds-checked before they slice a buffer.
package extentbounds

type Extent struct {
	Off     int64
	FeatOff int
	Len     int
}

type Addresser struct{}

func (a *Addresser) Extents(v int, dst []Extent) []Extent { return dst }
func (a *Addresser) NodeOffset(v int) int64               { return int64(v) }

func badExtentSlice(a *Addresser, buf []byte) []byte {
	exts := a.Extents(3, nil)
	e := exts[0]
	return buf[e.FeatOff : e.FeatOff+e.Len] // want "without a prior bounds check"
}

func badNodeOffsetIndex(a *Addresser, buf []byte) byte {
	off := a.NodeOffset(7)
	return buf[off] // want "without a prior bounds check"
}

func badRangeExtents(a *Addresser, buf []byte) (sum int) {
	for _, e := range a.Extents(3, nil) {
		sum += int(buf[e.Off]) // want "without a prior bounds check"
	}
	return sum
}

func goodGuardedSlice(a *Addresser, buf []byte) []byte {
	exts := a.Extents(3, nil)
	e := exts[0]
	if e.FeatOff < 0 || e.FeatOff+e.Len > len(buf) {
		return nil
	}
	return buf[e.FeatOff : e.FeatOff+e.Len]
}

func goodGuardedOffset(a *Addresser, buf []byte) byte {
	off := a.NodeOffset(7)
	if off < 0 || off >= int64(len(buf)) {
		return 0
	}
	return buf[off]
}

func goodUnrelatedIndex(buf []byte, i int) byte {
	// Offsets with no extent provenance are not the analyzer's business.
	return buf[i]
}

func goodReassigned(a *Addresser, buf []byte) byte {
	off := a.NodeOffset(7)
	off = 0 // clamped copy: provenance cleared
	return buf[off]
}
