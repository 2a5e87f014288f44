package integrity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"gnndrive/internal/checkpoint"
)

// ErrNoSidecar is returned by LoadSidecar when the path does not exist.
// Loaders treat it as "legacy dataset": the blocks they write start
// tracked from the written bytes, with a logged warning instead of a
// failure.
var ErrNoSidecar = errors.New("integrity: checksum sidecar not found")

// sidecarMagic identifies the checksum-sidecar format, version 1:
//
//	magic[8] | blockSize int64 | capacity int64 | nblocks int64 |
//	state[nblocks] byte | sums[nblocks] uint32, all little-endian.
const sidecarMagic = "GNNDCRC1"

// sidecarHeader is the byte length of the magic and the three counts.
const sidecarHeader = 8 + 3*8

// SaveSidecar persists the checksum table (per-block CRC32C sums and
// tracking states) so a later process that loads the same dataset adopts
// it and verifies against the sums taken when it was written. The write is crash-atomic
// (checkpoint.Commit). Conventionally the sidecar lives next to the
// dataset container as "<container>.crc".
func (b *Backend) SaveSidecar(path string) error {
	n := len(b.sums)
	img := make([]byte, sidecarHeader+5*n)
	copy(img, sidecarMagic)
	binary.LittleEndian.PutUint64(img[8:], uint64(b.block))
	binary.LittleEndian.PutUint64(img[16:], uint64(b.inner.Capacity()))
	binary.LittleEndian.PutUint64(img[24:], uint64(n))
	states, sums := img[sidecarHeader:][:n], img[sidecarHeader+n:]
	for i := range b.sums {
		states[i] = byte(b.state[i].Load())
		binary.LittleEndian.PutUint32(sums[4*i:], b.sums[i].Load())
	}
	if err := checkpoint.Commit(checkpoint.OSSink{}, path, img); err != nil {
		return fmt.Errorf("integrity: save sidecar: %w", err)
	}
	return nil
}

// LoadSidecar adopts a persisted checksum table. The sidecar's block size
// must match the wrapper's (a sidecar written at a different granularity
// is rejected, not reinterpreted); the block counts may differ, because a
// block's index maps to the same byte offset regardless of device
// capacity — a sidecar saved from an image with a larger or smaller
// scratch tail adopts over the overlapping range, and blocks beyond
// either geometry simply stay untracked. A sidecar that fails any check
// adopts nothing. A missing file returns an error wrapping ErrNoSidecar.
func (b *Backend) LoadSidecar(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNoSidecar, path)
		}
		return fmt.Errorf("integrity: load sidecar: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, sidecarHeader)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return fmt.Errorf("integrity: load sidecar %s: header: %w", path, err)
	}
	if string(hdr[:8]) != sidecarMagic {
		return fmt.Errorf("integrity: load sidecar %s: bad magic %q", path, hdr[:8])
	}
	bs := int64(binary.LittleEndian.Uint64(hdr[8:]))
	n := int64(binary.LittleEndian.Uint64(hdr[24:]))
	if bs != b.block {
		return fmt.Errorf("integrity: load sidecar %s: block size %d, wrapper uses %d", path, bs, b.block)
	}
	// n comes from disk: check it against the file size before sizing any
	// buffer by it. Dividing (not multiplying n by 5) keeps a crafted count
	// from wrapping around to a matching size.
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("integrity: load sidecar %s: %w", path, err)
	}
	if rest := fi.Size() - sidecarHeader; n < 0 || rest%5 != 0 || n != rest/5 {
		return fmt.Errorf("integrity: load sidecar %s: %d blocks inconsistent with %d-byte file", path, n, fi.Size())
	}
	body := make([]byte, 5*n)
	if _, err := io.ReadFull(f, body); err != nil {
		return fmt.Errorf("integrity: load sidecar %s: table: %w", path, err)
	}
	states, sums := body[:n], body[n:]
	if m := int64(len(b.sums)); n > m {
		n = m
	}
	for i, st := range states[:n] {
		if uint32(st) > stateQuarantined {
			return fmt.Errorf("integrity: load sidecar %s: block %d has state %d", path, i, st)
		}
	}
	for i := int64(0); i < n; i++ {
		// Publish sum before state (same ordering contract as noteWrite).
		b.sums[i].Store(binary.LittleEndian.Uint32(sums[4*i:]))
		b.state[i].Store(uint32(states[i]))
	}
	return nil
}
