package main

import (
	"runtime"
	"runtime/debug"

	"gnndrive/internal/storage/linuring"
)

// envStamp records where a result was measured, so two results are only
// ever compared knowingly across machines or toolchains.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	// Placement says where data files live; OutFS is the filesystem under
	// the out directory (checkpoints and daemon state are written there).
	Placement string `json:"data_placement"`
	OutFS     string `json:"out_fs"`
	IOUring   bool   `json:"io_uring"`
	ODirect   bool   `json:"o_direct"`
}

func stampEnv(pl *placement, dataPath string) envStamp {
	e := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     kernelRelease(),
		Placement:  pl.note,
		OutFS:      fsType(pl.runDir),
		IOUring:    linuring.Supported(),
	}
	if dataPath != "" {
		e.ODirect = directOK(dataPath)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}
