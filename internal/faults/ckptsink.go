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
	// prefix of the data and WriteFile fails. The commit rename never
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

// WriteFile writes data to path and fsyncs it, or crashes torn.
func (s *CkptSink) WriteFile(path string, data []byte) error {
	if isCkpt(path) && s.fire(CkptTornWrite) {
		// Persist only a prefix — the bytes that made it to disk before
		// the crash — and report the commit as failed.
		_ = os.WriteFile(path, data[:len(data)/2], 0o644)
		return ErrCkptCrash
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
