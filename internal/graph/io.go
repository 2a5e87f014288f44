package graph

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"gnndrive/internal/checkpoint"
	"gnndrive/internal/layout"
	"gnndrive/internal/storage"
)

// The .gnnd container is the whole preprocessed dataset, one file. All
// integers are little-endian:
//
//	magic "GNND1\n" | metadata length i64 | metadata (JSON header)
//	indptr (nodes+1) x i64 | train x i64 | val x i64 | labels nodes x i32
//	CRC32C of everything from the metadata length to here
//	indices edges x u32 | features nodes x dim x f32
//	offset section, when the header's layout is "packed":
//	    nodes x u64, each node's offset into the feature region | CRC32C
//	checksum section, when the header says "checksums":
//	    block size u64 | blocks u64 | states blocks x u8 |
//	    sums blocks x u32 | CRC32C
//
// Each CRC32C covers its section's bytes before it: the first guards the
// header and the host arrays, which no device-side checksum covers. Load
// accepts a file only when every CRC matches and the sizes the header
// declares account for every byte.
const fileMagic = "GNND1\n"

// tableHead is the checksum section's block size and block count.
const tableHead = 16

// ErrCorrupt is wrapped by Load failures caused by the container's
// content — a bad magic, header, CRC or size — as opposed to I/O errors
// opening or reading it.
var ErrCorrupt = errors.New("graph: corrupt container")

// corrupt wraps ErrCorrupt around a content problem of the container at
// path.
func corrupt(path string, err error) error { return fmt.Errorf("%w %s: %w", ErrCorrupt, path, err) }

// castagnoli is the CRC32C table every section's checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c is the CRC32C every section carries.
func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// header is the JSON metadata block of a .gnnd file.
type header struct {
	Name       string `json:"name"`
	NumNodes   int64  `json:"num_nodes"`
	NumEdges   int64  `json:"num_edges"`
	Dim        int    `json:"dim"`
	NumClasses int    `json:"num_classes"`
	Train      int    `json:"train"`
	Val        int    `json:"val"`
	// Layout names the feature-region layout: "" or "strided" for the
	// dense table, "packed" when the features were packed offline and
	// the offset section follows them.
	Layout string `json:"layout,omitempty"`
	// Checksums is set when the checksum section ends the file.
	Checksums bool `json:"checksums,omitempty"`
}

// check rejects a header whose counts are negative, or declare arrays
// and sections other than the size bytes that follow the metadata,
// before Load sizes a single slice or backend from them. It returns how
// many of those bytes the checksum section takes.
func (h *header) check(size int64) (int64, error) {
	if h.NumNodes < 0 || h.NumEdges < 0 || h.Dim <= 0 || h.NumClasses <= 0 ||
		h.Train < 0 || h.Val < 0 || int64(h.Train) > h.NumNodes || int64(h.Val) > h.NumNodes {
		return 0, fmt.Errorf("header counts out of range (nodes %d, edges %d, dim %d, classes %d, train %d, val %d)",
			h.NumNodes, h.NumEdges, h.Dim, h.NumClasses, h.Train, h.Val)
	}
	if h.Layout != "" && h.Layout != "strided" && h.Layout != "packed" {
		return 0, fmt.Errorf("unknown layout %q", h.Layout)
	}
	// Bound every term by size first, so the sum cannot overflow.
	tooBig := h.NumNodes > size/12 || h.NumEdges > size/4 ||
		(h.NumNodes > 0 && int64(h.Dim) > size/4/h.NumNodes)
	var need int64
	if !tooBig {
		need = 8*(h.NumNodes+1+int64(h.Train)+int64(h.Val)) + 4*h.NumNodes + 4 +
			4*h.NumEdges + 4*h.NumNodes*int64(h.Dim)
		if h.Layout == "packed" {
			need += 8*h.NumNodes + 4
		}
		if h.Checksums {
			need += tableHead + 4
		}
		tooBig = need > size
	}
	if tooBig {
		return 0, fmt.Errorf("header declares %d nodes, %d edges, dim %d: more than the file's %d bytes of arrays",
			h.NumNodes, h.NumEdges, h.Dim, size)
	}
	if !h.Checksums {
		if size > need {
			return 0, fmt.Errorf("%d trailing bytes", size-need)
		}
		return 0, nil
	}
	return size - need + tableHead + 4, nil
}

// checksummer is a backend that keeps a checksum table
// (storage/integrity's wrapper).
type checksummer interface {
	Checksums() storage.ChecksumTable
}

// Save writes the dataset to a .gnnd container file: metadata, indptr,
// labels, splits, the on-device index and feature arrays, a packed
// layout's offsets and, when the device keeps one, its checksum table.
// The file is committed crash-atomically (checkpoint.Commit): a failed or
// interrupted save leaves the previous file at path as it was.
func Save(ds *Dataset, path string) error { return save(ds, path, checkpoint.OSSink{}) }

// save is Save through sink.
func save(ds *Dataset, path string, sink checkpoint.Sink) error {
	le := binary.LittleEndian
	h := header{Name: ds.Name, NumNodes: ds.NumNodes, NumEdges: ds.NumEdges,
		Dim: ds.Dim, NumClasses: ds.NumClasses, Train: len(ds.TrainIdx), Val: len(ds.ValIdx)}
	var offsets, table []byte
	switch a := ds.Addr.(type) {
	case nil, layout.Strided:
	case *layout.Packed:
		h.Layout = "packed"
		offsets = make([]byte, 0, 8*ds.NumNodes)
		for v := range ds.NumNodes {
			offsets = le.AppendUint64(offsets, uint64(a.NodeOffset(v)-ds.Layout.FeaturesOff))
		}
	default:
		return fmt.Errorf("graph: save: layout %T has no container representation", ds.Addr)
	}
	if c, ok := ds.Dev.(checksummer); ok {
		h.Checksums = true
		t := c.Checksums()
		table = le.AppendUint64(table, uint64(t.BlockSize))
		table = le.AppendUint64(table, uint64(len(t.Sums)))
		table = append(table, t.States...)
		for _, s := range t.Sums {
			table = le.AppendUint32(table, s)
		}
	}
	meta, err := json.Marshal(h)
	if err != nil {
		return err
	}
	err = checkpoint.Commit(sink, path, func(f io.Writer) error {
		// bufio's error is sticky: Flush reports the first write that
		// failed.
		w := bufio.NewWriterSize(f, 1<<20)
		w.WriteString(fileMagic)
		sum := crc32.New(castagnoli)
		host := io.MultiWriter(w, sum)
		binary.Write(host, le, int64(len(meta)))
		host.Write(meta)
		for _, arr := range [][]int64{ds.Indptr, ds.TrainIdx, ds.ValIdx} {
			binary.Write(host, le, arr)
		}
		binary.Write(host, le, ds.Labels)
		w.Write(le.AppendUint32(nil, sum.Sum32()))
		if err := copyRegion(w, ds.Dev, ds.Layout.IndicesOff, ds.Layout.IndicesLen); err != nil {
			return err
		}
		if err := copyRegion(w, ds.Dev, ds.Layout.FeaturesOff, ds.Layout.FeaturesLen); err != nil {
			return err
		}
		if h.Layout == "packed" {
			writeSection(w, offsets)
		}
		if h.Checksums {
			writeSection(w, table)
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("graph: save %s: %w", path, err)
	}
	return nil
}

// writeSection writes a section's bytes and their CRC32C.
func writeSection(w io.Writer, b []byte) {
	w.Write(b)
	w.Write(binary.LittleEndian.AppendUint32(nil, crc32c(b)))
}

// readSection reads an n-byte section and its CRC32C, verifying it.
func readSection(r io.Reader, n int64, what string) ([]byte, error) {
	b := make([]byte, n+4)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("%s section: %w", what, err)
	}
	if crc32c(b[:n]) != binary.LittleEndian.Uint32(b[n:]) {
		return nil, fmt.Errorf("%s section CRC mismatch", what)
	}
	return b[:n], nil
}

func copyRegion(w io.Writer, dev storage.Backend, off, n int64) error {
	buf := make([]byte, 1<<20)
	for done := int64(0); done < n; {
		c := int64(len(buf))
		if done+c > n {
			c = n - done
		}
		if err := dev.ReadRaw(buf[:c], off+done); err != nil {
			return err
		}
		if _, err := w.Write(buf[:c]); err != nil {
			return err
		}
		done += c
	}
	return nil
}

// Load reads a .gnnd container, builds a backend through newBackend with
// capacity for the arrays plus extraBytes of scratch, and returns the
// dataset bound to it, with the checksum table the container saved (nil
// when it saved none). The factory decides where the bytes land — the
// simulator's in-memory image or a real file (storage/sim, storage/file).
// A container whose content does not check wraps ErrCorrupt.
func Load(path string, newBackend storage.Factory, extraBytes int64) (*Dataset, *storage.ChecksumTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: load: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("graph: load: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != fileMagic {
		return nil, nil, corrupt(path, errors.New("not a .gnnd file"))
	}
	// host is r with every byte up to the host arrays' CRC summed.
	sum := crc32.New(castagnoli)
	host := io.TeeReader(r, sum)
	var metaLen int64
	if err := binary.Read(host, binary.LittleEndian, &metaLen); err != nil {
		return nil, nil, corrupt(path, err)
	}
	if metaLen <= 0 || metaLen > 1<<20 {
		return nil, nil, corrupt(path, fmt.Errorf("implausible metadata length %d", metaLen))
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(host, meta); err != nil {
		return nil, nil, corrupt(path, err)
	}
	var h header
	if err := json.Unmarshal(meta, &h); err != nil {
		return nil, nil, corrupt(path, err)
	}
	tableLen, err := h.check(st.Size() - int64(len(fileMagic)) - 8 - metaLen)
	if err != nil {
		return nil, nil, corrupt(path, err)
	}
	ds := &Dataset{
		Name: h.Name, NumNodes: h.NumNodes, NumEdges: h.NumEdges,
		Dim: h.Dim, NumClasses: h.NumClasses,
		Indptr:   make([]int64, h.NumNodes+1),
		TrainIdx: make([]int64, h.Train),
		ValIdx:   make([]int64, h.Val),
		Labels:   make([]int32, h.NumNodes),
	}
	for _, arr := range [][]int64{ds.Indptr, ds.TrainIdx, ds.ValIdx} {
		if err := binary.Read(host, binary.LittleEndian, arr); err != nil {
			return nil, nil, corrupt(path, err)
		}
	}
	if err := binary.Read(host, binary.LittleEndian, ds.Labels); err != nil {
		return nil, nil, corrupt(path, err)
	}
	var want uint32
	if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
		return nil, nil, corrupt(path, err)
	}
	if sum.Sum32() != want {
		return nil, nil, corrupt(path, errors.New("header and host arrays CRC mismatch"))
	}
	indicesLen := 4 * h.NumEdges
	featOff := (indicesLen + 511) / 512 * 512
	featLen := h.NumNodes * int64(h.Dim) * 4
	ds.Layout = Layout{IndicesOff: 0, IndicesLen: indicesLen,
		FeaturesOff: featOff, FeaturesLen: featLen}
	dev, err := newBackend(featOff + featLen + extraBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: load backend: %w", err)
	}
	ds.Dev = dev
	table, err := loadRest(path, r, ds, h, tableLen)
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	return ds, table, nil
}

// loadRest fills ds's device from r, then reads the sections h declares
// and validates the result. tableLen is the checksum section's length.
func loadRest(path string, r io.Reader, ds *Dataset, h header, tableLen int64) (*storage.ChecksumTable, error) {
	for _, reg := range [][2]int64{{0, ds.Layout.IndicesLen}, {ds.Layout.FeaturesOff, ds.Layout.FeaturesLen}} {
		if err := fillRegion(r, ds.Dev, reg[0], reg[1]); err != nil {
			return nil, fmt.Errorf("graph: load %s: %w", path, err)
		}
	}
	if h.Layout == "packed" {
		b, err := readSection(r, 8*h.NumNodes, "offset")
		if err != nil {
			return nil, corrupt(path, err)
		}
		off := make([]int64, h.NumNodes)
		for v := range off {
			off[v] = int64(binary.LittleEndian.Uint64(b[8*v:]))
		}
		p, err := layout.PackedAt(ds.Layout.FeaturesOff, int(ds.FeatBytes()), off)
		if err != nil {
			return nil, corrupt(path, err)
		}
		ds.Addr = p
	}
	var table *storage.ChecksumTable
	if h.Checksums {
		var err error
		if table, err = readTable(r, tableLen); err != nil {
			return nil, corrupt(path, err)
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, corrupt(path, err)
	}
	return table, nil
}

// readTable reads the n-byte checksum section.
func readTable(r io.Reader, n int64) (*storage.ChecksumTable, error) {
	le := binary.LittleEndian
	b, err := readSection(r, n-4, "checksum")
	if err != nil {
		return nil, err
	}
	block, count := int64(le.Uint64(b)), le.Uint64(b[8:])
	// Dividing (not multiplying count by 5) keeps a crafted count from
	// wrapping around to a matching size.
	body := int64(len(b)) - tableHead
	if block <= 0 || body%5 != 0 || count != uint64(body/5) {
		return nil, fmt.Errorf("checksum section of %d bytes does not hold %d blocks of %d bytes", len(b), count, block)
	}
	states, sums := b[tableHead:][:count], b[tableHead+count:]
	t := &storage.ChecksumTable{BlockSize: block, States: states, Sums: make([]uint32, count)}
	for i, s := range states {
		if s > storage.BlockQuarantined {
			return nil, fmt.Errorf("checksum block %d has state %d", i, s)
		}
		t.Sums[i] = le.Uint32(sums[4*i:])
	}
	return t, nil
}

func fillRegion(r io.Reader, dev storage.Backend, off, n int64) error {
	buf := make([]byte, min(n, 1<<20))
	for done := int64(0); done < n; {
		c := int64(len(buf))
		if done+c > n {
			c = n - done
		}
		if _, err := io.ReadFull(r, buf[:c]); err != nil {
			return err
		}
		if err := dev.WriteRaw(buf[:c], off+done); err != nil {
			return err
		}
		done += c
	}
	return nil
}
