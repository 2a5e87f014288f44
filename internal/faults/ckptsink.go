package faults

// Checkpoint-sink fault injection. CkptSink implements the
// checkpoint.Sink seam (structurally — this package does not import
// internal/checkpoint) over the real filesystem, with one-shot armed
// crash modes at the exact points a real machine can die during a
// checkpoint commit: mid-write (torn temporary file), at the rename
// (new name never becomes visible), and after the rename but before
// the data is durable (committed file with a truncated tail). The
// checkpoint package's contract is that the first two lose nothing and
// the third loses only resume granularity — these modes are how the
// tests hold it to that.

import (
	"errors"
	"io"
	"os"
	"strings"
	"sync"
)

// ErrCkptCrash marks a simulated crash injected by a CkptSink.
var ErrCkptCrash = errors.New("faults: simulated crash during checkpoint commit")

// CkptFault selects a checkpoint commit fault mode.
type CkptFault int

// The injectable checkpoint faults.
const (
	// CkptNone passes everything through.
	CkptNone CkptFault = iota
	// CkptTornWrite crashes mid-write: the temporary file keeps only a
	// prefix of the first write and the write fails. The commit rename never
	// happens, so no torn file ever becomes visible under a .ckpt name.
	CkptTornWrite
	// CkptFailRename crashes at the commit point: the temporary file is
	// complete but the rename fails, so the checkpoint never appears.
	CkptFailRename
	// CkptTruncateTail models a crash after the rename but before the
	// data blocks are durable: the commit "succeeds", yet the visible
	// file has lost its tail. Loading it must fail CRC validation and
	// fall back to the previous checkpoint.
	CkptTruncateTail
)

// CkptSink is a fault-injecting checkpoint.Sink over the real
// filesystem. Faults are armed one-shot and fire only on checkpoint
// files (*.ckpt and their temporaries).
type CkptSink struct {
	mu       sync.Mutex
	mode     CkptFault
	after    int // matching operations to let through before firing
	injected int
}

// NewCkptSink creates a pass-through sink.
func NewCkptSink() *CkptSink { return &CkptSink{} }

// Arm schedules one fault: the mode fires on the (after+1)-th matching
// operation and then disarms.
func (s *CkptSink) Arm(mode CkptFault, after int) {
	s.mu.Lock()
	s.mode, s.after = mode, after
	s.mu.Unlock()
}

// Injected returns how many faults have fired.
func (s *CkptSink) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// isCkpt reports whether path is a checkpoint file or its temporary.
func isCkpt(path string) bool {
	return strings.HasSuffix(path, ".ckpt") || strings.HasSuffix(path, ".ckpt.tmp")
}

// fire consumes one armed shot of mode if it is due for this operation.
func (s *CkptSink) fire(mode CkptFault) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode != mode {
		return false
	}
	if s.after > 0 {
		s.after--
		return false
	}
	s.mode = CkptNone
	s.injected++
	return true
}

// ckptFile is checkpoint.File, spelled out so that this package need
// not import checkpoint.
type ckptFile = interface {
	io.Writer
	Sync() error
	Close() error
}

// Create opens path for writing, or for a torn write.
func (s *CkptSink) Create(path string) (ckptFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if isCkpt(path) && s.fire(CkptTornWrite) {
		return tornFile{f}, nil
	}
	return f, nil
}

// tornFile crashes on its first write.
type tornFile struct{ *os.File }

// Write persists only a prefix of p — the bytes that made it to disk
// before the crash — and reports the commit as failed.
func (f tornFile) Write(p []byte) (int, error) {
	n, _ := f.File.Write(p[:len(p)/2])
	return n, ErrCkptCrash
}

// Rename commits oldpath over newpath, with the rename-point and
// post-rename crash modes.
func (s *CkptSink) Rename(oldpath, newpath string) error {
	if isCkpt(newpath) && s.fire(CkptFailRename) {
		return ErrCkptCrash
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if isCkpt(newpath) && s.fire(CkptTruncateTail) {
		if fi, err := os.Stat(newpath); err == nil {
			_ = os.Truncate(newpath, fi.Size()/2)
		}
	}
	return nil
}

// SyncDir fsyncs dir (best-effort, like the real sink).
func (s *CkptSink) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	_ = d.Sync()
	return d.Close()
}

// Remove deletes path.
func (s *CkptSink) Remove(path string) error { return os.Remove(path) }
