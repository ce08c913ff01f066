// Package lhist is a lock-free log2-bucketed latency histogram shared by
// the live subsystems (the gateway's service-time metrics and the
// upstream forwarder's per-backend latency). Bucket k holds observations
// in [2^(k-1), 2^k) microseconds; 40 buckets cover ~13 days, far beyond
// any request latency.
package lhist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist accumulates durations; all methods are safe for concurrent use.
type Hist struct {
	buckets [40]atomic.Uint64
	count   atomic.Uint64
	sumUS   atomic.Uint64
	maxUS   atomic.Uint64
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	us := uint64(d.Microseconds())
	b := bits.Len64(us)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
}

// Merge folds other's observations into h. Both histograms may keep
// taking Observe calls concurrently; the merge is atomic per field, not
// across fields, so a snapshot taken mid-merge can see partial totals —
// the same staleness any concurrent Snapshot already tolerates.
func (h *Hist) Merge(other *Hist) {
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c > 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sumUS.Add(other.sumUS.Load())
	om := other.maxUS.Load()
	for {
		cur := h.maxUS.Load()
		if om <= cur || h.maxUS.CompareAndSwap(cur, om) {
			break
		}
	}
}

// Snapshot is a point-in-time percentile read.
type Snapshot struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  uint64  `json:"p50_us"`
	P90US  uint64  `json:"p90_us"`
	P99US  uint64  `json:"p99_us"`
	MaxUS  uint64  `json:"max_us"`
}

// Snapshot reads the histogram. Percentiles are upper bucket bounds, so
// they over-report by at most 2x — adequate for a scaling comparison,
// and stated in the docs.
func (h *Hist) Snapshot() Snapshot {
	var counts [40]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := Snapshot{Count: total, MaxUS: h.maxUS.Load()}
	if total == 0 {
		return s
	}
	s.MeanUS = float64(h.sumUS.Load()) / float64(total)
	quantile := func(q float64) uint64 {
		target := uint64(q * float64(total))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen > target {
				return uint64(1) << uint(i) // upper bound of bucket i
			}
		}
		return s.MaxUS
	}
	s.P50US = quantile(0.50)
	s.P90US = quantile(0.90)
	s.P99US = quantile(0.99)
	return s
}
