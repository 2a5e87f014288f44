package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"gnndrive/internal/layout"
	"gnndrive/internal/storage"
	"gnndrive/internal/storage/sim"
)

// FuzzLoad feeds arbitrary bytes to Load as a .gnnd container. Every
// input must end in an error wrapping ErrCorrupt or in a decode equal to
// the input: saved back, with the checksum table Load returned, the
// dataset reproduces every byte after the input's metadata — arrays,
// device regions, packed offsets and checksum table — and the same
// metadata. No input may panic, and none may make Load allocate more
// than the file's own size accounts for (the header check bounds every
// count by the file's size first). Seeds are in testdata/fuzz/FuzzLoad:
// a valid tiny container, with and without its sections, the ways a
// header, an offset section or a checksum section can lie, and a class
// count and a label edited in place, which only the CRC over the header
// and host arrays catches.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, table, err := loadFuzzed(t, data)
		if err != nil {
			return
		}
		defer ds.Dev.Close()
		if table != nil {
			ds.Dev = tableDev{ds.Dev, *table}
		}
		out := filepath.Join(t.TempDir(), "out.gnnd")
		if err := Save(ds, out); err != nil {
			t.Fatalf("Save after a successful load: %v", err)
		}
		saved, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(afterMeta(saved), afterMeta(data)) {
			t.Fatalf("saved bytes after the metadata differ from the input's")
		}
		again, _, err := Load(out, sim.Factory(sim.InstantConfig()), 0)
		if err != nil {
			t.Fatalf("reloading a saved load: %v", err)
		}
		defer again.Dev.Close()
		if ds.Name != again.Name || ds.NumNodes != again.NumNodes || ds.NumEdges != again.NumEdges ||
			ds.Dim != again.Dim || ds.NumClasses != again.NumClasses || ds.Layout != again.Layout ||
			!slices.Equal(ds.Indptr, again.Indptr) || !slices.Equal(ds.Labels, again.Labels) ||
			!slices.Equal(ds.TrainIdx, again.TrainIdx) || !slices.Equal(ds.ValIdx, again.ValIdx) {
			t.Fatalf("decode not identical after a save round trip")
		}
	})
}

// FuzzOffsetSection feeds arbitrary bytes to Load as the offset section
// of a packed container whose header and arrays are valid, so every
// input reaches the section's size, CRC and range checks. Every input
// must end in ErrCorrupt, or be a section of one offset per node and its
// CRC32C whose offsets are the loaded addresser's. Seeds are in
// testdata/fuzz/FuzzOffsetSection.
func FuzzOffsetSection(f *testing.F) {
	prefix, _ := savedSection(f, true)
	f.Fuzz(func(t *testing.T, sec []byte) {
		ds, _, err := loadFuzzed(t, append(slices.Clip(prefix), sec...))
		if err != nil {
			return
		}
		defer ds.Dev.Close()
		p, ok := ds.Addr.(*layout.Packed)
		if !ok || int64(len(sec)) != 8*ds.NumNodes+4 {
			t.Fatalf("loaded a %d-byte offset section of %d nodes as %T", len(sec), ds.NumNodes, ds.Addr)
		}
		for v := range ds.NumNodes {
			if got, want := p.NodeOffset(v)-ds.Layout.FeaturesOff, int64(binary.LittleEndian.Uint64(sec[8*v:])); got != want {
				t.Fatalf("node %d loaded at %d into the feature region, the section says %d", v, got, want)
			}
		}
		if crc32c(sec[:len(sec)-4]) != binary.LittleEndian.Uint32(sec[len(sec)-4:]) {
			t.Fatalf("loaded an offset section whose CRC does not match")
		}
	})
}

// FuzzChecksumSection feeds arbitrary bytes to Load as the checksum
// section of a container whose header and arrays are valid. Every input
// must end in ErrCorrupt, or be exactly the encoding of the table Load
// returned: block size, block count, states, sums and CRC32C. Seeds are
// in testdata/fuzz/FuzzChecksumSection.
func FuzzChecksumSection(f *testing.F) {
	prefix, _ := savedSection(f, false)
	f.Fuzz(func(t *testing.T, sec []byte) {
		ds, table, err := loadFuzzed(t, append(slices.Clip(prefix), sec...))
		if err != nil {
			return
		}
		ds.Dev.Close()
		if table == nil {
			t.Fatalf("a %d-byte checksum section loaded no table", len(sec))
		}
		le := binary.LittleEndian
		want := le.AppendUint64(nil, uint64(table.BlockSize))
		want = le.AppendUint64(want, uint64(len(table.Sums)))
		want = append(want, table.States...)
		for _, s := range table.Sums {
			want = le.AppendUint32(want, s)
		}
		want = le.AppendUint32(want, crc32c(want))
		if !bytes.Equal(want, sec) {
			t.Fatalf("the loaded table does not encode back to the section")
		}
	})
}

// loadFuzzed writes data to a file and loads it. The load must not
// panic, must fail only with ErrCorrupt, and must not allocate more than
// the file's own size accounts for (the header check bounds every count
// by the file's size first).
func loadFuzzed(t *testing.T, data []byte) (*Dataset, *storage.ChecksumTable, error) {
	in := filepath.Join(t.TempDir(), "in.gnnd")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, table, err := Load(in, sim.Factory(sim.InstantConfig()), 0)
	runtime.ReadMemStats(&after)
	// The 1 MiB read buffer, plus the arrays, the device image, the
	// region-copy buffers and the sections, each at most the file's
	// size; the rest is slack.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+6*len(data)); got > limit {
		t.Fatalf("loading a %d-byte container allocated %d bytes, above %d", len(data), got, limit)
	}
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
	return ds, table, err
}

// savedSection saves the test dataset, packed with its offset section
// when packed is set, otherwise strided with a checksum section, and
// splits the container into everything before that section and the
// section itself.
func savedSection(tb testing.TB, packed bool) (prefix, sec []byte) {
	b := savedContainer(tb, packed, !packed)
	n := 8*4 + 4 // four nodes' offsets
	if !packed {
		n = tableHead + 5*len(testTable.Sums) + 4
	}
	return b[:len(b)-n], b[len(b)-n:]
}

// testTable is the checksum table the test containers save.
var testTable = storage.ChecksumTable{BlockSize: 512,
	States: []byte{storage.BlockTracked, storage.BlockUntracked, storage.BlockQuarantined},
	Sums:   []uint32{0x1234, 0, 0xdeadbeef}}

// savedContainer saves the test dataset, packed with its nodes in
// reverse order when packed is set and with testTable when checksums is
// set, and returns the container's bytes.
func savedContainer(tb testing.TB, packed, checksums bool) []byte {
	tb.Helper()
	ds := buildTestDataset(tb)
	ds.TrainIdx = []int64{0, 2}
	ds.ValIdx = []int64{1}
	if packed {
		p, err := layout.PackedAt(ds.Layout.FeaturesOff, int(ds.FeatBytes()), []int64{96, 64, 32, 0})
		if err != nil {
			tb.Fatal(err)
		}
		ds.Addr = p
	}
	if checksums {
		ds.Dev = tableDev{ds.Dev, testTable}
	}
	path := filepath.Join(tb.TempDir(), "x.gnnd")
	if err := Save(ds, path); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// tableDev is a backend that keeps a checksum table, as the integrity
// wrapper does.
type tableDev struct {
	storage.Backend
	t storage.ChecksumTable
}

func (d tableDev) Checksums() storage.ChecksumTable { return d.t }

// hostSpan returns where a loadable container's host arrays start and
// end: between its metadata and their CRC.
func hostSpan(b []byte) (start, end int) {
	start = len(fileMagic) + 8 + int(binary.LittleEndian.Uint64(b[len(fileMagic):]))
	var h header
	if err := json.Unmarshal(b[len(fileMagic)+8:start], &h); err != nil {
		panic(err)
	}
	return start, start + 8*(int(h.NumNodes)+1+h.Train+h.Val) + 4*int(h.NumNodes)
}

// afterHost returns the bytes of a loadable container that follow the
// CRC of its header and host arrays.
func afterHost(b []byte) []byte {
	_, end := hostSpan(b)
	return b[end+4:]
}

// afterMeta returns the bytes of a loadable container that follow its
// metadata.
func afterMeta(b []byte) []byte {
	return b[len(fileMagic)+8+int(binary.LittleEndian.Uint64(b[len(fileMagic):])):]
}
