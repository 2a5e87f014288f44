package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The reported tail percentile is the highest one with ten samples
// beyond it, and only once it lies above the median.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to prove it sorts
		}
		return xs
	}
	if _, _, ok := tailPercentile(seq(20)); ok {
		t.Error("20 samples reported a tail percentile")
	}
	p, v, ok := tailPercentile(seq(30))
	if !ok || v != 20 || math.Abs(p-100*20.0/30) > 1e-9 {
		t.Errorf("30 samples: p=%v value=%v ok=%v, want p66.7 value 20", p, v, ok)
	}
	p, v, ok = tailPercentile(seq(1000))
	if !ok || v != 990 || p != 99 {
		t.Errorf("1000 samples: p=%v value=%v ok=%v, want p99 value 990", p, v, ok)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the driver's spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1.05, 0.98, 1.02, 1.10, 0.97, 1.00, 1.03, 0.99, 1.01, 1.20}
	q1, q2, q3 := quartiles(xs)
	// statistics.quantiles(xs, n=4) -> [0.9875, 1.015, 1.0625]
	for _, c := range []struct{ got, want float64 }{{q1, 0.9875}, {q2, 1.015}, {q3, 1.0625}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartile %v, want %v", c.got, c.want)
		}
	}
	if got, want := spreadShare(xs), (1.0625-0.9875)/1.015; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
}

func TestLatencyHist(t *testing.T) {
	for _, ns := range []int64{0, 1, 7, 8, 9, 15, 16, 1000, 123456, 1 << 40} {
		b := histBucket(ns)
		lo, hi := histBucketLow(b), histBucketLow(b+1)
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns landed in bucket %d = [%v,%v)", ns, b, lo, hi)
		}
		if ns >= histSub && (hi-lo)/lo > 1.0/histSub+1e-9 {
			t.Errorf("bucket %d is %.1f%% wide", b, 100*(hi-lo)/lo)
		}
	}
	var h latencyHist
	for i := 1; i <= 1000; i++ {
		h.record(int64(i) * 1000)
	}
	counts := h.snapshot()
	for _, c := range []struct{ p, want float64 }{{50, 500e3}, {99, 990e3}} {
		if got := histPercentile(counts, c.p); math.Abs(got-c.want)/c.want > 0.09 {
			t.Errorf("p%v = %v, want %v within 9%%", c.p, got, c.want)
		}
	}
}
