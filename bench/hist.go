package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-memory log-linear histogram of nanosecond values: 128
// linear sub-buckets per power of two, so a bucket is never wider than
// 1/128 of its lower edge and a quantile read from a bucket midpoint is
// within 0.4 % of the true sample. internal/lhist buckets by log2 alone
// (up to 2x wide), which is too coarse to gate a 10 % latency bound.
// Not safe for concurrent use: every client goroutine owns one and the
// owner merges them after the run.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 40 // values are clamped below 2^40 ns (~18 min)
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		return histBuckets - 1
	}
	e := bits.Len64(v) - 1 // 2^e <= v < 2^(e+1)
	return (e-histSubBits)*histSub + int(v>>(e-histSubBits))
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := uint(i/histSub - 1)
	lo := uint64(histSub+i%histSub) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram): the midpoint of the bucket holding the ceil(q*n)-th sample.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return float64(h.max)
}

// best is the mean of the best tenth of v (of at least one value): the
// highest when higher is better, otherwise the lowest; 0 when v is empty.
// On a shared host other tenants only ever slow a window down, in bursts
// of seconds, so the least disturbed windows repeat from run to run far
// better than the typical one: on the reference host, under busy
// neighbours, the median window rate of identical runs spread 17-29 %
// (quartile distance over median), the best tenth 10-16 %.
func best(v []float64, higher bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := max(len(s)/10, 1)
	if higher {
		s = s[len(s)-n:]
	} else {
		s = s[:n]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(n)
}

// median of a small sample (window rates, per-call span durations); the
// mean of the two middle values when the count is even, 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, and 0 where there is nothing to divide by (a layer the
// workload does not run, an interval with no messages).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cv is the coefficient of variation (population standard deviation over
// the mean) — the run's own reading of how steady its windows were.
func cv(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return ratio(math.Sqrt(ss/float64(len(v))), mean)
}
