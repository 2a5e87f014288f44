//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// memfdNumbers is the memfd_create syscall number per GOARCH. The frozen
// syscall package predates the call on amd64, so the table lives here.
var memfdNumbers = map[string]uintptr{
	"amd64": 319, "386": 356, "arm": 385,
	"arm64": 279, "riscv64": 279, "loong64": 279,
}

// newMemFile returns an anonymous memory-backed file (memfd). The data
// files of the real-backend workloads live in one: reads see ~zero
// device latency (the workloads then measure the software cost of the
// I/O path, not this sandbox's shared disk), nothing is written outside
// the checkout, and a killed run leaves nothing behind.
func newMemFile(name string) (*os.File, error) {
	nr, ok := memfdNumbers[runtime.GOARCH]
	if !ok {
		return nil, fmt.Errorf("memfd_create: no syscall number for %s", runtime.GOARCH)
	}
	b, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, err
	}
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(b)), 0, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	return os.NewFile(fd, name), nil
}

// memFilePath is the path through which other opens (O_DIRECT included)
// reach the same memory file.
func memFilePath(f *os.File) string {
	return fmt.Sprintf("/proc/self/fd/%d", f.Fd())
}

var fsNames = map[int64]string{
	0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x858458f6: "ramfs",
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if n, ok := fsNames[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// resetPeakRSS restarts the VmHWM high-water mark at the current RSS, so
// the peak a workload reports covers training, not dataset generation.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's VmHWM in MB (0 when unreadable).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// directOK reports whether path can be opened O_DIRECT.
func directOK(path string) bool {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_DIRECT, 0)
	if err != nil {
		return false
	}
	syscall.Close(fd)
	return true
}
