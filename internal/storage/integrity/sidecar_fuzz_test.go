package integrity_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"gnndrive/internal/storage/integrity"
	"gnndrive/internal/storage/sim"
)

// fuzzCapacity gives the fuzzed wrapper 16 blocks of 512 bytes, the
// geometry of the committed valid seed (testdata/fuzz/FuzzLoadSidecar).
const fuzzCapacity = 16 * 512

// sidecarTable splits a well-formed sidecar image into its per-block
// states and sums.
func sidecarTable(img []byte) (states []byte, sums []uint32) {
	n := binary.LittleEndian.Uint64(img[24:])
	states = img[32 : 32+n]
	for i := uint64(0); i < n; i++ {
		sums = append(sums, binary.LittleEndian.Uint32(img[32+n+4*i:]))
	}
	return states, sums
}

// FuzzLoadSidecar feeds arbitrary bytes to LoadSidecar. Every input must
// end in an error or in an adopted table equal to the one in the input:
// saved back through SaveSidecar, each block the wrapper has keeps the
// input's state and sum, and blocks past the input's count stay
// untracked. No input may panic.
func FuzzLoadSidecar(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.crc")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := integrity.Wrap(sim.New(fuzzCapacity, sim.InstantConfig()), integrity.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if err := b.LoadSidecar(in); err != nil {
			return
		}
		out := filepath.Join(dir, "out.crc")
		if err := b.SaveSidecar(out); err != nil {
			t.Fatalf("SaveSidecar after a successful load: %v", err)
		}
		saved, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		wantStates, wantSums := sidecarTable(data)
		gotStates, gotSums := sidecarTable(saved)
		for i := range gotStates {
			var st byte
			var sum uint32
			if i < len(wantStates) {
				st, sum = wantStates[i], wantSums[i]
			}
			if gotStates[i] != st || gotSums[i] != sum {
				t.Fatalf("block %d adopted as state %d sum %#x, input says state %d sum %#x",
					i, gotStates[i], gotSums[i], st, sum)
			}
		}
	})
}
