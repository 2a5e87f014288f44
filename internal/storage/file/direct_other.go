//go:build !linux

package file

import (
	"errors"
	"os"
)

// openDirect has no portable O_DIRECT equivalent off Linux; the backend
// serves every read buffered and counts direct asks in DirectDegraded.
func openDirect(path string) (*os.File, error) {
	return nil, errors.New("file: O_DIRECT unsupported on this platform")
}
