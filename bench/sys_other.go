//go:build !linux

package main

import (
	"errors"
	"os"
	"runtime"
)

var errLinuxOnly = errors.New("linux only")

func newMemFile(string) (*os.File, error) { return nil, errLinuxOnly }
func memFilePath(*os.File) string         { return "" }
func fsType(string) string                { return "unknown" }
func kernelRelease() string               { return "unknown" }
func resetPeakRSS() error                 { return errLinuxOnly }

// peakRSSMB falls back to the Go runtime's view of memory obtained from
// the OS where /proc is not available.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func directOK(string) bool { return false }
