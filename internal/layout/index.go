package layout

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"

	"gnndrive/internal/checkpoint"
)

// The packed-layout offset index persists next to a .gnnd container as
// "<container>.pidx", adopted by graph.Load the same way integrity
// sidecars are. Format (all little-endian), version 1:
//
//	header[40]: magic[8] | version u32 | featBytes u32 | segBytes u32 |
//	            leafFanout u32 | numNodes u64 | numLeaves u64
//	headerCRC  u32 (CRC32C of header[40])
//	keys       numLeaves x u64   — B+tree internal level: first node ID
//	                               covered by each leaf page
//	keysCRC    u32
//	leaves     numLeaves x (leafFanout x u64 offsets | leafCRC u32)
//
// segBytes is always indexSegBytes. Offsets are relative to the feature
// region base; the loader binds the base, so a container moved to a
// device with different region offsets still addresses correctly. Every
// level is CRC-guarded: a corrupt header, internal node, or leaf page is
// rejected (ErrCorruptIndex), not reinterpreted.

// indexMagic identifies the offset-index format, version 1.
const indexMagic = "GNNDIDX1"

const (
	indexVersion      = 1
	indexHeaderLen    = 40
	defaultLeafFanout = 512
	// indexSegBytes fills the v1 header's segBytes word, which nothing
	// reads any more. It holds the value every existing index holds, so
	// saved indexes stay byte-identical; the loader still requires a
	// positive multiple of 512 there.
	indexSegBytes = 256 << 10
)

// ErrCorruptIndex is wrapped by load failures caused by the index file's
// content (bad magic, CRC mismatch, inconsistent geometry) — as opposed
// to I/O errors opening or reading it.
var ErrCorruptIndex = errors.New("layout: corrupt packed index")

// ErrNoIndex is wrapped by LoadIndex when the file does not exist.
var ErrNoIndex = errors.New("layout: packed index not found")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SaveIndex persists the packed mapping as an offset-index file. The
// write is crash-atomic (checkpoint.Commit), so a crashed save never
// leaves a torn index next to a good container.
func (p *Packed) SaveIndex(path string) error {
	fanout := defaultLeafFanout
	numNodes := int64(len(p.off))
	numLeaves := (numNodes + int64(fanout) - 1) / int64(fanout)
	var w bytes.Buffer

	hdr := make([]byte, indexHeaderLen)
	copy(hdr, indexMagic)
	binary.LittleEndian.PutUint32(hdr[8:], indexVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(p.feat))
	binary.LittleEndian.PutUint32(hdr[16:], indexSegBytes)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(fanout))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(numNodes))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(numLeaves))
	writeCRCd(&w, hdr)

	keys := make([]byte, 8*numLeaves)
	for l := int64(0); l < numLeaves; l++ {
		binary.LittleEndian.PutUint64(keys[8*l:], uint64(l*int64(fanout)))
	}
	writeCRCd(&w, keys)

	leaf := make([]byte, 8*fanout)
	for l := int64(0); l < numLeaves; l++ {
		clear(leaf)
		lo := l * int64(fanout)
		hi := min(lo+int64(fanout), numNodes)
		for v := lo; v < hi; v++ {
			binary.LittleEndian.PutUint64(leaf[8*(v-lo):], uint64(p.off[v]))
		}
		writeCRCd(&w, leaf)
	}
	if err := checkpoint.Commit(checkpoint.OSSink{}, path, w.Bytes()); err != nil {
		return fmt.Errorf("layout: save index: %w", err)
	}
	return nil
}

// writeCRCd appends block followed by its CRC32C.
func writeCRCd(w *bytes.Buffer, block []byte) {
	w.Write(block)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(block, crcTable))
	w.Write(crc[:])
}

// readCRCd reads len(block) bytes plus their trailing CRC32C, verifying.
func readCRCd(r io.Reader, block []byte, what string) error {
	if _, err := io.ReadFull(r, block); err != nil {
		return fmt.Errorf("%w: %s truncated: %v", ErrCorruptIndex, what, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return fmt.Errorf("%w: %s CRC truncated: %v", ErrCorruptIndex, what, err)
	}
	if got := crc32.Checksum(block, crcTable); got != binary.LittleEndian.Uint32(crc[:]) {
		return fmt.Errorf("%w: %s CRC mismatch", ErrCorruptIndex, what)
	}
	return nil
}

// LoadIndex reads an offset-index file and binds it to a feature region
// at device offset base, returning the Packed addresser. A missing file
// wraps ErrNoIndex; any content problem wraps ErrCorruptIndex.
func LoadIndex(path string, base int64) (*Packed, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoIndex, path)
		}
		return nil, fmt.Errorf("layout: load index: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("layout: load index: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)

	hdr := make([]byte, indexHeaderLen)
	if err := readCRCd(r, hdr, "header"); err != nil {
		return nil, fmt.Errorf("layout: load index %s: %w", path, err)
	}
	if string(hdr[:8]) != indexMagic {
		return nil, fmt.Errorf("layout: load index %s: %w: bad magic %q", path, ErrCorruptIndex, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != indexVersion {
		return nil, fmt.Errorf("layout: load index %s: %w: version %d, want %d", path, ErrCorruptIndex, v, indexVersion)
	}
	feat := int(binary.LittleEndian.Uint32(hdr[12:]))
	seg := int(binary.LittleEndian.Uint32(hdr[16:]))
	fanout := int(binary.LittleEndian.Uint32(hdr[20:]))
	numNodes := int64(binary.LittleEndian.Uint64(hdr[24:]))
	numLeaves := int64(binary.LittleEndian.Uint64(hdr[32:]))
	if feat <= 0 || seg <= 0 || seg%512 != 0 || fanout <= 0 || numNodes <= 0 ||
		numLeaves != (numNodes-1)/int64(fanout)+1 {
		return nil, fmt.Errorf("layout: load index %s: %w: implausible geometry (feat=%d seg=%d fanout=%d nodes=%d leaves=%d)",
			path, ErrCorruptIndex, feat, seg, fanout, numNodes, numLeaves)
	}
	// The file must be exactly as long as its geometry says, which bounds
	// every allocation below by the file's own size.
	perLeaf := 8 + 8*int64(fanout) + 4           // key, entries, leaf CRC
	body := fi.Size() - (indexHeaderLen + 4) - 4 // less the header and the keys' CRC
	if body < 0 || body%perLeaf != 0 || body/perLeaf != numLeaves {
		return nil, fmt.Errorf("layout: load index %s: %w: %d bytes do not hold %d leaves of fanout %d",
			path, ErrCorruptIndex, fi.Size(), numLeaves, fanout)
	}

	keys := make([]byte, 8*numLeaves)
	if err := readCRCd(r, keys, "internal node"); err != nil {
		return nil, fmt.Errorf("layout: load index %s: %w", path, err)
	}
	p := &Packed{base: base, feat: feat, off: make([]int64, numNodes)}
	leaf := make([]byte, 8*fanout)
	lastOff := (numNodes - 1) * int64(feat) // where the region's last vector starts
	for l := int64(0); l < numLeaves; l++ {
		if err := readCRCd(r, leaf, fmt.Sprintf("leaf %d", l)); err != nil {
			return nil, fmt.Errorf("layout: load index %s: %w", path, err)
		}
		// The internal level keys each leaf by its first node ID; decode
		// the leaf's entries into the IDs it covers.
		lo := int64(binary.LittleEndian.Uint64(keys[8*l:]))
		if lo != l*int64(fanout) {
			return nil, fmt.Errorf("layout: load index %s: %w: leaf %d keyed at node %d, want %d",
				path, ErrCorruptIndex, l, lo, l*int64(fanout))
		}
		hi := lo + int64(fanout)
		if hi > numNodes {
			hi = numNodes
		}
		for v := lo; v < hi; v++ {
			off := int64(binary.LittleEndian.Uint64(leaf[8*(v-lo):]))
			if off < 0 || off > lastOff {
				return nil, fmt.Errorf("layout: load index %s: %w: node %d offset %d outside region",
					path, ErrCorruptIndex, v, off)
			}
			p.off[v] = off
		}
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("layout: load index %s: %w: trailing bytes", path, ErrCorruptIndex)
	}
	return p, nil
}
