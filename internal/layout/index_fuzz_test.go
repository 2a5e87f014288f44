package layout_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gnndrive/internal/layout"
)

// pidxHeaderLen is the .pidx header's length. FuzzLoadIndex decodes the
// format independently of the loader: the header and its CRC, then
// numLeaves keys and their CRC, then the leaves, each fanout offsets and
// a CRC.
const pidxHeaderLen = 40

// pidxFuzzBase is the feature-region offset fuzzed indexes are bound to.
const pidxFuzzBase = 4096

// FuzzLoadIndex feeds arbitrary bytes to LoadIndex. Every input must end
// in ErrCorruptIndex or in a Packed equal to the input: its geometry is
// the header's, every node's offset is the one the input's leaf holds,
// and saving and reloading it yields the same mapping. No input may
// panic, and none may make the loader allocate more than the input's own
// size accounts for: a header claiming 2^26 nodes in a 180-byte file is
// corrupt, not an allocation. Seeds are in testdata/fuzz/FuzzLoadIndex.
func FuzzLoadIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.pidx")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := layout.LoadIndex(in, pidxFuzzBase)
		runtime.ReadMemStats(&after)
		// The loader's 1 MiB read buffer, plus the keys, the offsets and
		// one leaf, each at most the file's size; the rest is slack.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+4*len(data)); got > limit {
			t.Fatalf("loading a %d-byte index allocated %d bytes, above %d", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, layout.ErrCorruptIndex) {
				t.Fatalf("error %v, want ErrCorruptIndex", err)
			}
			return
		}

		feat := int(binary.LittleEndian.Uint32(data[12:]))
		fanout := int64(binary.LittleEndian.Uint32(data[20:]))
		numNodes := int64(binary.LittleEndian.Uint64(data[24:]))
		numLeaves := int64(binary.LittleEndian.Uint64(data[32:]))
		if p.FeatBytes() != feat || p.NumNodes() != numNodes {
			t.Fatalf("decoded feat=%d nodes=%d, header says feat=%d nodes=%d",
				p.FeatBytes(), p.NumNodes(), feat, numNodes)
		}
		leaves := pidxHeaderLen + 4 + 8*numLeaves + 4
		for v := int64(0); v < numNodes; v++ {
			at := leaves + v/fanout*(8*fanout+4) + 8*(v%fanout)
			off := p.NodeOffset(v) - pidxFuzzBase
			if want := int64(binary.LittleEndian.Uint64(data[at:])); off != want {
				t.Fatalf("node %d decoded at offset %d, its leaf says %d", v, off, want)
			}
			// numNodes ≤ len(data)/8, so the region size cannot wrap here.
			if off < 0 || off > (numNodes-1)*int64(feat) {
				t.Fatalf("node %d at offset %d: its %d-byte vector leaves the %d-node region", v, off, feat, numNodes)
			}
		}

		out := filepath.Join(dir, "out.pidx")
		if err := p.SaveIndex(out); err != nil {
			t.Fatalf("SaveIndex after a successful load: %v", err)
		}
		q, err := layout.LoadIndex(out, pidxFuzzBase)
		if err != nil {
			t.Fatalf("reloading a saved index: %v", err)
		}
		if q.FeatBytes() != feat || q.NumNodes() != numNodes {
			t.Fatalf("reloaded feat=%d nodes=%d, want %d %d",
				q.FeatBytes(), q.NumNodes(), feat, numNodes)
		}
		for v := int64(0); v < numNodes; v++ {
			if q.NodeOffset(v) != p.NodeOffset(v) {
				t.Fatalf("node %d reloaded at %d, saved at %d", v, q.NodeOffset(v), p.NodeOffset(v))
			}
		}
	})
}
