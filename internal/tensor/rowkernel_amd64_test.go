package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestRowKernelDispatch: on a CPU that reports AVX, with the OS saving
// its registers, rowKernel runs the AVX kernel, so the differential tests
// compare the assembly with the portable kernel rather than the portable
// kernel with itself. Where Linux lists avx in /proc/cpuinfo (it drops
// the flag when the OS does not save YMM state), the probe must agree.
// Elsewhere the test skips and names the missing bit.
func TestRowKernelDispatch(t *testing.T) {
	missing := avxMissing()
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil && missing != "" {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" &&
				slices.Contains(strings.Fields(flags), "avx") {
				t.Fatalf("/proc/cpuinfo lists avx, but the probe reports %s unset", missing)
			}
		}
	}
	if missing != "" {
		t.Skipf("no AVX row kernel: %s is unset, so rowKernel runs the portable kernel", missing)
	}
	if !useAVX {
		t.Fatal("the CPU and OS support AVX, but rowKernel runs the portable kernel")
	}
}
