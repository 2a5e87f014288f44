package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// placement hands out the files a run needs: backend data files,
// checkpoint directories and the daemon's state directory. Everything
// lives under runDir (inside the benchmark's out directory) and is
// removed by close. Data files are memory files linked into runDir
// unless dataDir names a directory for real files.
type placement struct {
	runDir  string
	dataDir string // "" = memory files
	mem     []*os.File
	note    string
}

func newPlacement(outDir, workload, dataDir string) (*placement, error) {
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	p := &placement{runDir: runDir}
	if dataDir != "" {
		p.dataDir = filepath.Join(dataDir, fmt.Sprintf("gnndrive-bench-%d", os.Getpid()))
		if err := os.MkdirAll(p.dataDir, 0o755); err != nil {
			return nil, err
		}
		p.note = "files on " + fsType(p.dataDir)
		return p, nil
	}
	// Probe once so the result records which placement the run got.
	f, err := newMemFile("probe")
	if err != nil {
		p.dataDir = runDir
		p.note = fmt.Sprintf("files on %s (memory files unavailable: %v)", fsType(runDir), err)
		return p, nil
	}
	f.Close()
	p.note = "memory files (memfd)"
	return p, nil
}

// dataFile returns a fresh, empty data file path called name.
func (p *placement) dataFile(name string) (string, error) {
	if p.dataDir != "" {
		path := filepath.Join(p.dataDir, name)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return "", err
		}
		os.Remove(path + ".crc")
		return path, nil
	}
	f, err := newMemFile(name)
	if err != nil {
		return "", err
	}
	p.mem = append(p.mem, f)
	link := filepath.Join(p.runDir, name)
	os.Remove(link)
	os.Remove(link + ".crc")
	if err := os.Symlink(memFilePath(f), link); err != nil {
		return "", err
	}
	return link, nil
}

// dropMem releases the memory behind every data file handed out so far.
func (p *placement) dropMem() {
	for _, f := range p.mem {
		f.Close()
	}
	p.mem = nil
}

// subdir returns runDir/name without creating it.
func (p *placement) subdir(name string) string { return filepath.Join(p.runDir, name) }

func (p *placement) close() {
	p.dropMem()
	os.RemoveAll(p.runDir)
	if p.dataDir != "" && p.dataDir != p.runDir {
		os.RemoveAll(p.dataDir)
	}
}

// syncFile flushes path's dirty pages, so the first epoch never measures
// writeback of the dataset build.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
