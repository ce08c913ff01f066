// Package runstats is the always-available half of the live measurement
// layer: a runtime/metrics sampler covering the Go-runtime analogues of
// the paper's system-level observations — scheduler latency (the
// software cousin of queueing before a processing unit), GC pause and GC
// CPU share (cycles the application didn't get), goroutine population
// and GOMAXPROCS (the live processing-unit count).
//
// Unlike internal/hwcount it needs no privileges and works on every
// platform, so runs where perf events are denied (unprivileged
// containers, CI) degrade to runstats-only observability instead of
// failing.
package runstats

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// The fixed sample set, stable since Go 1.20.
const (
	mGoroutines = "/sched/goroutines:goroutines"
	mSchedLat   = "/sched/latencies:seconds"
	mGCPauses   = "/gc/pauses:seconds"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mHeapBytes  = "/memory/classes/heap/objects:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

var sampleNames = []string{
	mGoroutines, mSchedLat, mGCPauses, mGCCycles, mHeapBytes, mGCCPU, mTotalCPU,
}

// Snapshot is one point-in-time runtime reading, shaped for the
// gateway's /stats counters section.
type Snapshot struct {
	Goroutines    int     `json:"goroutines"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	HeapBytes     uint64  `json:"heap_bytes"`
	GCCycles      uint64  `json:"gc_cycles"`
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	GCPauseP50US  float64 `json:"gc_pause_p50_us"`
	GCPauseP99US  float64 `json:"gc_pause_p99_us"`
	SchedLatP50US float64 `json:"sched_lat_p50_us"`
	SchedLatP99US float64 `json:"sched_lat_p99_us"`
}

// Read takes one snapshot. Histogram-derived percentiles are cumulative
// since process start — adequate for spotting a run whose scheduler or
// GC is the bottleneck, which is all the fallback mode promises.
func Read() Snapshot {
	samples := make([]metrics.Sample, len(sampleNames))
	for i := range samples {
		samples[i].Name = sampleNames[i]
	}
	metrics.Read(samples)

	s := Snapshot{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var gcCPU, totalCPU float64
	for _, smp := range samples {
		switch smp.Name {
		case mGoroutines:
			if smp.Value.Kind() == metrics.KindUint64 {
				s.Goroutines = int(smp.Value.Uint64())
			}
		case mGCCycles:
			if smp.Value.Kind() == metrics.KindUint64 {
				s.GCCycles = smp.Value.Uint64()
			}
		case mHeapBytes:
			if smp.Value.Kind() == metrics.KindUint64 {
				s.HeapBytes = smp.Value.Uint64()
			}
		case mGCCPU:
			if smp.Value.Kind() == metrics.KindFloat64 {
				gcCPU = smp.Value.Float64()
			}
		case mTotalCPU:
			if smp.Value.Kind() == metrics.KindFloat64 {
				totalCPU = smp.Value.Float64()
			}
		case mSchedLat:
			if smp.Value.Kind() == metrics.KindFloat64Histogram {
				h := smp.Value.Float64Histogram()
				s.SchedLatP50US = 1e6 * quantile(h, 0.50)
				s.SchedLatP99US = 1e6 * quantile(h, 0.99)
			}
		case mGCPauses:
			if smp.Value.Kind() == metrics.KindFloat64Histogram {
				h := smp.Value.Float64Histogram()
				s.GCPauseP50US = 1e6 * quantile(h, 0.50)
				s.GCPauseP99US = 1e6 * quantile(h, 0.99)
			}
		}
	}
	if totalCPU > 0 {
		s.GCCPUFraction = gcCPU / totalCPU
	}
	return s
}

// quantile reads quantile q (0..1) from a runtime/metrics histogram,
// returning the upper bound of the bucket where the cumulative count
// crosses the target — the same upper-bound convention internal/lhist
// uses. Unbounded edge buckets fall back to their finite side; an empty
// histogram reads zero.
func quantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > target {
			// Bucket i spans Buckets[i] .. Buckets[i+1].
			hi := h.Buckets[i+1]
			if !isFinite(hi) {
				return h.Buckets[i] // +Inf bucket: report its lower edge
			}
			return hi
		}
	}
	// All mass at or below the last bucket; return its finite bound.
	last := h.Buckets[len(h.Buckets)-1]
	if !isFinite(last) {
		return h.Buckets[len(h.Buckets)-2]
	}
	return last
}

func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }
