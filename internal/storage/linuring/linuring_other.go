//go:build !linux

package linuring

import (
	"fmt"

	"gnndrive/internal/storage"
)

// io_uring is Linux-only; off Linux the probe is a constant no and
// Create always takes the ErrUnsupported path, which FallbackFactory
// resolves to the storage/file worker pool.

func supported() bool { return false }

// Create fails with ErrUnsupported off Linux.
func Create(path string, capacity int64, opts Options) (storage.Backend, error) {
	return nil, fmt.Errorf("linuring: create %s: %w", path, ErrUnsupported)
}
