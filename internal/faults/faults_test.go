package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestDecideDeterministicAcrossInjectors(t *testing.T) {
	cfg := Config{Seed: 42, TransientRate: 0.2, ShortReadRate: 0.1, StragglerRate: 0.1}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for off := int64(0); off < 512*100; off += 512 {
		da, db := a.Decide(off, 4096), b.Decide(off, 4096)
		if !errors.Is(da.Err, errOf(db.Err)) && !errors.Is(db.Err, errOf(da.Err)) {
			t.Fatalf("offset %d: %v vs %v", off, da.Err, db.Err)
		}
		if da.Bytes != db.Bytes || da.Delay != db.Delay {
			t.Fatalf("offset %d: decisions differ: %+v vs %+v", off, da, db)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts differ: %+v vs %+v", a.Counts(), b.Counts())
	}
}

// errOf maps a wrapped decision error back to its sentinel for comparison.
func errOf(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTransient):
		return ErrTransient
	case errors.Is(err, ErrMedia):
		return ErrMedia
	case errors.Is(err, ErrShortRead):
		return ErrShortRead
	}
	return err
}

func TestDecideRetryRerollsAttempt(t *testing.T) {
	// With a high transient rate, the same offset must not fail forever:
	// each retry advances the attempt counter and re-rolls the draw.
	in := NewInjector(Config{Seed: 7, TransientRate: 0.5})
	const off = 4096
	cleared := false
	for attempt := 0; attempt < 64; attempt++ {
		if in.Decide(off, 512).Err == nil {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("transient fault at one offset never cleared over 64 retries")
	}
}

func TestTransientRateApproximate(t *testing.T) {
	in := NewInjector(Config{Seed: 3, TransientRate: 0.1})
	const n = 20000
	fails := 0
	for i := 0; i < n; i++ {
		if in.Decide(int64(i)*512, 512).Err != nil {
			fails++
		}
	}
	rate := float64(fails) / n
	if rate < 0.07 || rate > 0.13 {
		t.Fatalf("observed transient rate %.4f, want ~0.10", rate)
	}
	if got := in.Counts().Transient; got != int64(fails) {
		t.Fatalf("counter %d != observed %d", got, fails)
	}
}

func TestMediaRangePersists(t *testing.T) {
	in := NewInjector(Config{MediaRanges: []Range{{Off: 1024, Len: 512}}})
	for attempt := 0; attempt < 10; attempt++ {
		if d := in.Decide(1024, 512); !errors.Is(d.Err, ErrMedia) {
			t.Fatalf("attempt %d: %v, want ErrMedia", attempt, d.Err)
		}
	}
	// Overlap from either side also fails; disjoint reads succeed.
	if d := in.Decide(512, 1024); !errors.Is(d.Err, ErrMedia) {
		t.Fatalf("left-overlapping read: %v", d.Err)
	}
	if d := in.Decide(1535, 2); !errors.Is(d.Err, ErrMedia) {
		t.Fatalf("right-edge read: %v", d.Err)
	}
	if d := in.Decide(1536, 512); d.Err != nil {
		t.Fatalf("disjoint read failed: %v", d.Err)
	}
	if d := in.Decide(0, 1024); d.Err != nil {
		t.Fatalf("adjacent-below read failed: %v", d.Err)
	}
	if got := in.Counts().Media; got != 12 {
		t.Fatalf("media count %d, want 12", got)
	}
}

func TestShortReadDeliversPrefix(t *testing.T) {
	in := NewInjector(Config{Seed: 9, ShortReadRate: 1})
	d := in.Decide(0, 4096)
	if !errors.Is(d.Err, ErrShortRead) {
		t.Fatalf("err %v", d.Err)
	}
	if d.Bytes != 2048 {
		t.Fatalf("short read filled %d of 4096, want 2048", d.Bytes)
	}
}

func TestStragglerAddsDelay(t *testing.T) {
	in := NewInjector(Config{Seed: 5, StragglerRate: 1, StragglerDelay: 3 * time.Millisecond})
	d := in.Decide(0, 512)
	if d.Err != nil || d.Delay != 3*time.Millisecond {
		t.Fatalf("decision %+v", d)
	}
	if in.Counts().Straggler != 1 {
		t.Fatalf("counts %+v", in.Counts())
	}
}

func TestSilentCorruptDeterministic(t *testing.T) {
	cfg := Config{Seed: 21, CorruptRate: 1}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for off := int64(0); off < 512*32; off += 512 {
		da, db := a.Decide(off, 512), b.Decide(off, 512)
		if da.Err != nil || !da.Corrupt {
			t.Fatalf("offset %d: %+v, want clean corrupt decision", off, da)
		}
		if da.CorruptBit != db.CorruptBit {
			t.Fatalf("offset %d: corrupt bit %d vs %d", off, da.CorruptBit, db.CorruptBit)
		}
	}
	if got := a.Counts().SilentCorrupt; got != 32 {
		t.Fatalf("silent-corrupt count %d, want 32", got)
	}
}

func TestCorruptRateApproximate(t *testing.T) {
	in := NewInjector(Config{Seed: 33, CorruptRate: 0.1})
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if in.Decide(int64(i)*512, 512).Corrupt {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.07 || rate > 0.13 {
		t.Fatalf("observed corrupt rate %.4f, want ~0.10", rate)
	}
}

func TestApplyCorruptionFlipsExactlyOneBit(t *testing.T) {
	dec := Decision{Corrupt: true, CorruptBit: 8*5 + 3}
	p := make([]byte, 16)
	ApplyCorruption(dec, p)
	if p[5] != 1<<3 {
		t.Fatalf("buffer after corruption: %v", p)
	}
	flips := 0
	for _, b := range p {
		for ; b != 0; b &= b - 1 {
			flips++
		}
	}
	if flips != 1 {
		t.Fatalf("%d bits flipped, want 1", flips)
	}
	// The bit index wraps modulo the filled length.
	q := make([]byte, 2)
	ApplyCorruption(Decision{Corrupt: true, CorruptBit: 16 + 1}, q)
	if q[0] != 1<<1 || q[1] != 0 {
		t.Fatalf("wrapped corruption: %v", q)
	}
	// Clean decisions and empty buffers are no-ops.
	ApplyCorruption(Decision{}, q)
	if q[0] != 1<<1 {
		t.Fatalf("clean decision mutated the buffer: %v", q)
	}
	ApplyCorruption(dec, nil)
}

func TestCountsTotal(t *testing.T) {
	c := Counts{Transient: 1, Media: 2, ShortRead: 3, Straggler: 4, SilentCorrupt: 5}
	if c.Total() != 15 {
		t.Fatalf("total %d", c.Total())
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		Transient: "transient", Media: "media",
		ShortRead: "short-read", Straggler: "straggler",
		SilentCorrupt: "silent-corrupt",
	} {
		if c.String() != want {
			t.Fatalf("%d: %q", int(c), c.String())
		}
	}
}

func TestRetryableClassifiesTransientReads(t *testing.T) {
	for _, err := range []error{ErrTransient, ErrShortRead, fmt.Errorf("read [0,512): %w", ErrTransient),
		errors.Join(errors.New("outer"), ErrShortRead)} {
		if !Retryable(err) {
			t.Errorf("%v: not retryable", err)
		}
	}
	for _, err := range []error{nil, ErrMedia, errors.New("closed"), fmt.Errorf("x: %w", ErrMedia)} {
		if Retryable(err) {
			t.Errorf("%v: retryable", err)
		}
	}
}
