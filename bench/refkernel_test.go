package main

import (
	"math"
	"testing"
)

func TestRefIndexAndNormalisation(t *testing.T) {
	nominal := refReading(refNominal)
	if got := nominal.index(refIOPath); math.Abs(got-1) > 1e-12 {
		t.Errorf("nominal reading reads %v under iopath, want 1", got)
	}
	slowMatmul := nominal
	slowMatmul[refMatmul] *= 2
	if got := slowMatmul.index(refCompute); math.Abs(got-2) > 1e-12 {
		t.Errorf("compute index %v with matmul twice as slow, want 2", got)
	}
	if got := slowMatmul.index(refIOPath); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("iopath index %v with one of three parts twice as slow, want 4/3", got)
	}
	if got := between(nominal, slowMatmul, refCompute); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("between = %v, want 1.5", got)
	}
	if !refNone.none() || refCompute.none() {
		t.Error("only refNone is none")
	}

	var tm timings
	tm.add(3, 1.5)
	tm.add(2, 1)
	if n := tm.normalised(); n[0] != 2 || n[1] != 2 {
		t.Errorf("normalised = %v, want [2 2]", n)
	}
}

// A reading must cost the measured program nothing but time: no
// allocation (allocs_per_batch is taken around readings) and no goroutine
// left behind.
func TestRefKernelReadAllocatesNothing(t *testing.T) {
	pl, err := newPlacement(t.TempDir(), "ref", "")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.close()
	k, err := newRefKernel(pl)
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	r := k.read()
	for part, v := range r {
		if v <= 0 {
			t.Errorf("part %d read %v s", part, v)
		}
	}
	if n := testing.AllocsPerRun(3, func() { k.read() }); n != 0 {
		t.Errorf("a reading allocates %v objects", n)
	}
	into := map[string][]float64{}
	k.samples(into)
	if len(into) != refParts || len(into["ref_matmul_s"]) != len(k.log) {
		t.Errorf("samples = %d series of %d readings, log has %d", len(into), len(into["ref_matmul_s"]), len(k.log))
	}
}
