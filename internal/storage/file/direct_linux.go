//go:build linux

package file

import (
	"os"
	"syscall"
)

// openDirect opens path with O_DIRECT for the unbuffered read path. The
// kernel or filesystem may refuse (tmpfs did before Linux 6.6, and some
// network filesystems still do); the caller treats
// any error as "no direct descriptor" and serves reads buffered.
func openDirect(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDONLY|syscall.O_DIRECT, 0)
}
