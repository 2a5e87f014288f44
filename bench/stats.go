package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// tailPercentile is the reporting rule for timings: next to the median,
// report the highest percentile that still has tailSamples samples
// beyond it. It is only worth printing once it lies above the median, so
// 2*tailSamples samples or fewer report none.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= 2*tailSamples {
		return 0, 0, false
	}
	s := sorted(xs)
	k := n - tailSamples // samples at or below the reported one
	return 100 * float64(k) / float64(n), s[k-1], true
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the driver's spread rule uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spreadShare is the interquartile distance as a share of the median —
// the run-to-run spread a regression bound is judged against.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencyHist is a fixed-bucket log histogram of durations in
// nanoseconds: 8 sub-buckets per power of two, so a percentile read from
// it is within ~9 % of the true value. Recording is one atomic add, so a
// probe on the read completion path allocates nothing.
type latencyHist struct {
	buckets [64 * histSub]atomic.Int64
}

const histSub = 8

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns)) // floor(log2 ns) >= 3
	sub := int((ns >> (uint(exp) - 3)) & (histSub - 1))
	return (exp-2)*histSub + sub
}

func histBucketLow(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	exp := b/histSub + 2
	sub := b % histSub
	return math.Ldexp(1+float64(sub)/histSub, exp)
}

func (h *latencyHist) record(ns int64) { h.buckets[histBucket(ns)].Add(1) }

// snapshot copies the bucket counts (for interval deltas).
func (h *latencyHist) snapshot() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// histPercentile reads percentile p (0..100) from bucket counts,
// returning the midpoint of the bucket holding it, in nanoseconds.
func histPercentile(counts []int64, p float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := int64(math.Ceil(p / 100 * float64(total)))
	if want < 1 {
		want = 1
	}
	var seen int64
	for b, c := range counts {
		seen += c
		if seen >= want {
			return (histBucketLow(b) + histBucketLow(b+1)) / 2
		}
	}
	return histBucketLow(len(counts) - 1)
}

func subCounts(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
