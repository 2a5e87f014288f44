// Package checkpoint persists and restores the full durable state of a
// training run: model parameters, Adam moments and step count, the
// epoch/step cursor, the RNG seed material, and a fingerprint of the
// options that produced them. Disk-based GNN training runs for hours; a
// crash, OOM-kill, or unrecoverable media fault must cost at most the
// interval since the last checkpoint, never the whole run.
//
// Durability model:
//
//   - every checkpoint is committed crash-atomically: the serialized
//     state is written to a temporary file, fsynced, renamed into place,
//     and the directory is fsynced — a crash at any point leaves either
//     the old set of checkpoints or the old set plus one complete new
//     file, never a half-visible one;
//   - every section of the container carries its own CRC32, so a torn or
//     bit-flipped file is detected on load and reported as ErrCorrupt
//     rather than silently delivering garbage weights;
//   - Save keeps the last K checkpoint files and LoadLatest scans the
//     directory for the newest file that validates, so a checkpoint
//     corrupted after commit — a truncated tail, a flipped sector —
//     degrades resume granularity instead of losing the run.
//
// Every file operation goes through the Sink seam, so a test can record
// the operations of a commit and check each crash state they can leave
// (crash_test.go).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Typed failures, distinguishable with errors.Is.
var (
	// ErrNoCheckpoint means the directory holds no checkpoint that
	// validates (or no checkpoint at all).
	ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint")
	// ErrCorrupt marks a file that exists but fails structural
	// validation: bad magic, truncated section, or CRC mismatch.
	ErrCorrupt = errors.New("checkpoint: corrupt")
	// ErrFingerprint marks a structurally valid checkpoint whose options
	// fingerprint does not match the resuming run's configuration.
	ErrFingerprint = errors.New("checkpoint: options fingerprint mismatch")
)

// magic identifies the run-state container; version is encoded after it
// so incompatible layouts are rejected before any section parsing.
const (
	magic   = "GNNRUNS1"
	version = 1
)

// Section identifiers. A loader must see meta, params, adamM, adamV, and
// end — in that order — for the file to validate.
const (
	secMeta uint32 = iota + 1
	secParams
	secAdamM
	secAdamV
	secEnd
)

// Tensor is one named float32 matrix inside a RunState (a model
// parameter or an optimizer moment aligned to it).
type Tensor struct {
	Name string
	Rows int
	Cols int
	Data []float32
}

// RunState is everything a run needs to resume deterministically.
type RunState struct {
	// Fingerprint hashes the options that shape the training trajectory
	// (model, dims, batch schedule, seed, dataset shape). Resume must
	// reject a state saved under a different configuration.
	Fingerprint uint64
	// Epoch and Step form the resume cursor: the next mini-batch to
	// train is step Step of epoch Epoch. Step 0 means the epoch's start.
	Epoch int
	Step  int
	// Seed is the run's RNG seed material; the per-epoch shuffle and
	// per-batch sampling streams re-derive from it, so no generator
	// state needs to be persisted.
	Seed uint64
	// AdamT is the optimizer's bias-correction step count.
	AdamT int
	// Params are the model parameters; AdamM and AdamV are the first and
	// second moments, index-aligned with Params. All three are empty for
	// modeled (no-real-math) runs, which checkpoint only the cursor.
	Params []Tensor
	AdamM  []Tensor
	AdamV  []Tensor
}

// Sink abstracts the file operations a durable writer needs, so a test
// can record each step or fail one: the directory creation, the write,
// the fsync, the rename and the directory fsync.
type Sink interface {
	// Mkdir creates the directory path in an existing parent.
	Mkdir(path string) error
	// Create creates (or truncates) path for writing.
	Create(path string) (File, error)
	// Rename atomically moves oldpath over newpath.
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs the directory so the rename itself is durable.
	SyncDir(dir string) error
	// Remove deletes a retired checkpoint file.
	Remove(path string) error
}

// File is a file a Sink created: Commit writes it, fsyncs it and closes
// it.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSSink is the real filesystem implementation of Sink.
type OSSink struct{}

// Mkdir creates the directory path.
func (OSSink) Mkdir(path string) error { return os.Mkdir(path, 0o755) }

// Create opens path for writing, truncating it.
func (OSSink) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename moves oldpath over newpath.
func (OSSink) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir fsyncs dir so a preceding rename survives a crash.
func (OSSink) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some filesystems refuse directory fsync; the rename is still
	// ordered after the file fsync, so degrade silently.
	_ = d.Sync()
	return d.Close()
}

// Remove deletes path.
func (OSSink) Remove(path string) error { return os.Remove(path) }

// Commit replaces the file at path crash-atomically through sink: write
// fills path+".tmp", which is fsynced, renamed over path, and the
// directory is fsynced so the rename survives a crash. When a step fails
// the temporary is removed and the file previously at path is left as it
// was. Every durable file in the tree is written this way.
func Commit(sink Sink, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	err := writeFile(sink, tmp, write)
	if err == nil {
		err = sink.Rename(tmp, path)
	}
	if err != nil {
		_ = sink.Remove(tmp)
		return err
	}
	return sink.SyncDir(filepath.Dir(path))
}

// MkdirAll creates dir and any missing parents through sink, as
// os.MkdirAll does, and fsyncs the parent of each directory it creates,
// so a file later committed into dir cannot vanish with its directory in
// a crash. A directory that exists already costs one stat.
func MkdirAll(sink Sink, dir string) error {
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := MkdirAll(sink, parent); err != nil {
			return err
		}
	}
	// A directory another writer created meanwhile is synced here too.
	if err := sink.Mkdir(dir); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return sink.SyncDir(parent)
}

// writeFile creates path through sink, fills it with write and fsyncs it.
func writeFile(sink Sink, path string, write func(io.Writer) error) error {
	f, err := sink.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Saver commits checkpoints into a directory, keeping the newest
// defaultKeep. It encodes into one buffer it reuses across saves and runs
// at most one commit at a time, in the order the saves started.
//
// A Saver is driven by one goroutine: Start, Wait and Save must not be
// called concurrently.
type Saver struct {
	Dir string
	// Sink overrides the filesystem seam (nil = OSSink).
	Sink Sink

	buf []byte
	// write writes buf; bound once, so a commit allocates no closure.
	write    func(io.Writer) error
	dirReady bool
	// done closes when the commit in flight has finished; path and err
	// are its outcome. done is nil when no commit is in flight.
	done chan struct{}
	path string
	err  error
}

// defaultKeep bounds how many checkpoints stay on disk. Keeping more than
// one is what makes fallback-on-corruption work.
const defaultKeep = 3

func (s *Saver) sink() Sink {
	if s.Sink != nil {
		return s.Sink
	}
	return OSSink{}
}

// FileName returns the canonical checkpoint file name for a cursor.
// Zero-padded so lexicographic order is chronological order.
func FileName(epoch, step int) string {
	return fmt.Sprintf("run-%06d-%08d.ckpt", epoch, step)
}

// Save serializes st and commits it crash-atomically, then prunes old
// checkpoints beyond defaultKeep. It returns the committed file path once
// the file is durable: Save is Start followed by Wait, for a Saver with
// no commit in flight.
func (s *Saver) Save(st *RunState) (string, error) {
	s.Start(st)
	return s.Wait()
}

// Start waits for the commit in flight, if any, and returns its outcome
// as Wait would. It then encodes st into the Saver's buffer and commits
// that in the background, pruning old checkpoints after it; Wait
// reports how it went. st is read only before Start returns, so its
// tensors may alias state the caller goes on to change.
func (s *Saver) Start(st *RunState) (string, error) {
	prevPath, prevErr := s.Wait()
	s.path = filepath.Join(s.Dir, FileName(st.Epoch, st.Step))
	s.done = make(chan struct{})
	s.buf = appendEncoded(s.buf[:0], st)
	if s.write == nil {
		s.write = s.writeBuf
	}
	go func() {
		defer close(s.done)
		sink := s.sink()
		if err := s.prepareDir(sink); err != nil {
			s.err = fmt.Errorf("checkpoint: %w", err)
			return
		}
		if err := Commit(sink, s.path, s.write); err != nil {
			s.err = fmt.Errorf("checkpoint: commit %s: %w", s.path, err)
			return
		}
		s.prune(sink)
	}()
	return prevPath, prevErr
}

// writeBuf writes the encoded checkpoint.
func (s *Saver) writeBuf(w io.Writer) error {
	_, err := w.Write(s.buf)
	return err
}

// Wait blocks until the commit in flight has finished and returns its
// file path, or the error that stopped it. With nothing in flight it
// returns "" and nil.
func (s *Saver) Wait() (string, error) {
	if s.done == nil {
		return "", nil
	}
	<-s.done
	path, err := s.path, s.err
	s.done, s.err = nil, nil
	if err != nil {
		return "", err
	}
	return path, nil
}

// prepareDir creates Dir on the Saver's first commit.
func (s *Saver) prepareDir(sink Sink) error {
	if s.dirReady {
		return nil
	}
	if s.Dir == "" {
		return errors.New("Saver.Dir is empty")
	}
	if err := MkdirAll(sink, s.Dir); err != nil {
		return err
	}
	s.dirReady = true
	return nil
}

// prune removes checkpoints beyond defaultKeep, oldest first. Pruning
// failures are ignored: stale files cost disk, not correctness.
func (s *Saver) prune(sink Sink) {
	names := listCheckpoints(s.Dir)
	for _, n := range names[:max(len(names)-defaultKeep, 0)] {
		_ = sink.Remove(filepath.Join(s.Dir, n))
	}
}

// listCheckpoints returns the checkpoint file names in dir, oldest first.
func listCheckpoints(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "run-") && strings.HasSuffix(n, ".ckpt") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// LoadLatest returns the newest checkpoint in dir that validates,
// falling back across torn or bit-flipped files. The error is
// ErrNoCheckpoint when nothing validates; individual corrupt files are
// skipped, not fatal.
func LoadLatest(dir string) (*RunState, string, error) {
	names := listCheckpoints(dir)
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		st, err := LoadFile(path)
		if err == nil {
			return st, path, nil
		}
	}
	return nil, "", fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
}

// LoadFile reads and validates one checkpoint file.
func LoadFile(path string) (*RunState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// ---- container encoding ----

// Encode serializes st into the sectioned, CRC-guarded container.
func Encode(st *RunState) []byte { return appendEncoded(nil, st) }

// encodedSize is the length of st's container.
func encodedSize(st *RunState) int {
	n := len(magic) + 4 + sectionOverhead + metaBytes
	for _, ts := range [][]Tensor{st.Params, st.AdamM, st.AdamV} {
		n += sectionOverhead + 4
		for _, t := range ts {
			n += minTensorBytes + len(t.Name) + 4*len(t.Data)
		}
	}
	return n + sectionOverhead + 4
}

// appendEncoded appends st's container to dst in one pass, growing dst
// at most once, and returns the extended slice.
func appendEncoded(dst []byte, st *RunState) []byte {
	le := binary.LittleEndian
	b := slices.Grow(dst, encodedSize(st))
	base := len(b)
	b = append(b, magic...)
	b = le.AppendUint32(b, version)

	sec := beginSection(&b, secMeta)
	b = le.AppendUint64(b, st.Fingerprint)
	b = le.AppendUint64(b, uint64(st.Epoch))
	b = le.AppendUint64(b, uint64(st.Step))
	b = le.AppendUint64(b, st.Seed)
	b = le.AppendUint64(b, uint64(st.AdamT))
	b = le.AppendUint32(b, uint32(len(st.Params)))
	endSection(&b, sec)

	for _, s := range []struct {
		id uint32
		ts []Tensor
	}{{secParams, st.Params}, {secAdamM, st.AdamM}, {secAdamV, st.AdamV}} {
		sec := beginSection(&b, s.id)
		b = appendTensors(b, s.ts)
		endSection(&b, sec)
	}

	// The end section's payload is the CRC of everything before it, so a
	// file spliced together from two valid checkpoints cannot validate.
	whole := crc32.ChecksumIEEE(b[base:])
	sec = beginSection(&b, secEnd)
	b = le.AppendUint32(b, whole)
	endSection(&b, sec)
	return b
}

// Decode parses and validates a container produced by Encode.
func Decode(data []byte) (*RunState, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	st := &RunState{}
	off := len(magic) + 4
	seen := map[uint32]bool{}
	var paramCount uint32
	for {
		id, payload, next, err := readSection(data, off)
		if err != nil {
			return nil, err
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		seen[id] = true
		switch id {
		case secMeta:
			if len(payload) != metaBytes {
				return nil, fmt.Errorf("%w: meta section length %d", ErrCorrupt, len(payload))
			}
			le := binary.LittleEndian
			st.Fingerprint = le.Uint64(payload[0:])
			st.Epoch = int(int64(le.Uint64(payload[8:])))
			st.Step = int(int64(le.Uint64(payload[16:])))
			st.Seed = le.Uint64(payload[24:])
			st.AdamT = int(int64(le.Uint64(payload[32:])))
			paramCount = le.Uint32(payload[40:])
		case secParams:
			ts, err := decodeTensors(payload)
			if err != nil {
				return nil, err
			}
			st.Params = ts
		case secAdamM:
			ts, err := decodeTensors(payload)
			if err != nil {
				return nil, err
			}
			st.AdamM = ts
		case secAdamV:
			ts, err := decodeTensors(payload)
			if err != nil {
				return nil, err
			}
			st.AdamV = ts
		case secEnd:
			if len(payload) != 4 {
				return nil, fmt.Errorf("%w: end section length %d", ErrCorrupt, len(payload))
			}
			want := binary.LittleEndian.Uint32(payload)
			// The end section starts 12 bytes (id+len+payload CRC trailer
			// offset) before `next`; everything before it is covered.
			if got := crc32.ChecksumIEEE(data[:next-sectionOverhead-4]); got != want {
				return nil, fmt.Errorf("%w: whole-file CRC mismatch", ErrCorrupt)
			}
			if next != len(data) {
				return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-next)
			}
			for _, id := range []uint32{secMeta, secParams, secAdamM, secAdamV} {
				if !seen[id] {
					return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
				}
			}
			if int(paramCount) != len(st.Params) {
				return nil, fmt.Errorf("%w: meta declares %d params, file has %d",
					ErrCorrupt, paramCount, len(st.Params))
			}
			if len(st.AdamM) != len(st.AdamV) ||
				(len(st.AdamM) != 0 && len(st.AdamM) != len(st.Params)) {
				return nil, fmt.Errorf("%w: moment/param count mismatch (%d/%d/%d)",
					ErrCorrupt, len(st.Params), len(st.AdamM), len(st.AdamV))
			}
			return st, nil
		default:
			return nil, fmt.Errorf("%w: unknown section %d", ErrCorrupt, id)
		}
		off = next
	}
}

// sectionOverhead is the per-section framing: u32 id + u32 length before
// the payload, u32 CRC after it.
const sectionOverhead = 12

// metaBytes is the meta section's payload: five u64 fields and the u32
// parameter count.
const metaBytes = 5*8 + 4

// beginSection appends a section header whose length is filled in by
// endSection, and returns the offset of the payload.
func beginSection(b *[]byte, id uint32) int {
	*b = binary.LittleEndian.AppendUint32(*b, id)
	*b = append(*b, 0, 0, 0, 0)
	return len(*b)
}

// endSection closes the section whose payload starts at body: it writes
// the payload length into the header and appends the payload's CRC.
func endSection(b *[]byte, body int) {
	payload := (*b)[body:]
	binary.LittleEndian.PutUint32((*b)[body-4:], uint32(len(payload)))
	*b = binary.LittleEndian.AppendUint32(*b, crc32.ChecksumIEEE(payload))
}

func readSection(data []byte, off int) (id uint32, payload []byte, next int, err error) {
	le := binary.LittleEndian
	if off+8 > len(data) {
		return 0, nil, 0, fmt.Errorf("%w: truncated section header at %d", ErrCorrupt, off)
	}
	id = le.Uint32(data[off:])
	n := int(le.Uint32(data[off+4:]))
	body := off + 8
	if n < 0 || body+n+4 > len(data) {
		return 0, nil, 0, fmt.Errorf("%w: section %d truncated (%d bytes at %d)", ErrCorrupt, id, n, off)
	}
	payload = data[body : body+n]
	if got, want := crc32.ChecksumIEEE(payload), le.Uint32(data[body+n:]); got != want {
		return 0, nil, 0, fmt.Errorf("%w: section %d CRC mismatch", ErrCorrupt, id)
	}
	return id, payload, body + n + 4, nil
}

// appendTensors appends a tensor section's payload: the count, then each
// tensor's name, shape and little-endian float32 data.
func appendTensors(b []byte, ts []Tensor) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(ts)))
	for _, t := range ts {
		b = le.AppendUint32(b, uint32(len(t.Name)))
		b = append(b, t.Name...)
		b = le.AppendUint32(b, uint32(t.Rows))
		b = le.AppendUint32(b, uint32(t.Cols))
		off := len(b)
		b = slices.Grow(b, 4*len(t.Data))[:off+4*len(t.Data)]
		out := b[off:]
		for i, v := range t.Data {
			le.PutUint32(out[4*i:], math.Float32bits(v))
		}
	}
	return b
}

// minTensorBytes is the smallest encoded tensor: name length, rows and
// cols, with an empty name and no data.
const minTensorBytes = 12

func decodeTensors(payload []byte) ([]Tensor, error) {
	le := binary.LittleEndian
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: tensor section too short", ErrCorrupt)
	}
	n := int(le.Uint32(payload))
	off := 4
	// Every tensor encodes at least its name length, rows and cols, so a
	// count the payload cannot hold is corrupt before it sizes anything.
	if n > (len(payload)-off)/minTensorBytes {
		return nil, fmt.Errorf("%w: %d tensors in a %d-byte section", ErrCorrupt, n, len(payload))
	}
	ts := make([]Tensor, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(payload) {
			return nil, fmt.Errorf("%w: tensor %d truncated", ErrCorrupt, i)
		}
		nameLen := int(le.Uint32(payload[off:]))
		off += 4
		if nameLen < 0 || nameLen > 4096 || off+nameLen+8 > len(payload) {
			return nil, fmt.Errorf("%w: tensor %d name length %d", ErrCorrupt, i, nameLen)
		}
		name := string(payload[off : off+nameLen])
		off += nameLen
		rows := int(le.Uint32(payload[off:]))
		cols := int(le.Uint32(payload[off+4:]))
		off += 8
		// Divide rather than multiply: rows*cols*4 can overflow.
		if room := (len(payload) - off) / 4; cols != 0 && rows > room/cols {
			return nil, fmt.Errorf("%w: tensor %q shape %dx%d overruns section", ErrCorrupt, name, rows, cols)
		}
		data := make([]float32, rows*cols)
		for j := range data {
			data[j] = math.Float32frombits(le.Uint32(payload[off:]))
			off += 4
		}
		ts = append(ts, Tensor{Name: name, Rows: rows, Cols: cols, Data: data})
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing tensor bytes", ErrCorrupt, len(payload)-off)
	}
	return ts, nil
}
