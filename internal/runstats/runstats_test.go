package runstats

import (
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
)

// TestQuantileHandComputed pins the histogram quantile math on an
// injected histogram: 10 observations across three buckets
// (0,1]=5 (1,3]=3 (3,4]=2. The convention matches internal/lhist
// (strictly-greater cumulative, upper bucket bound): the p50 target of 5
// is not exceeded by the first bucket's 5, so p50 reports the second
// bucket's upper bound 3; p90 lands in the third (upper bound 4); p10 in
// the first (upper bound 1).
func TestQuantileHandComputed(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{5, 3, 2},
		Buckets: []float64{0, 1, 3, 4},
	}
	if got := quantile(h, 0.50); got != 3 {
		t.Fatalf("p50=%v want 3", got)
	}
	if got := quantile(h, 0.90); got != 4 {
		t.Fatalf("p90=%v want 4", got)
	}
	if got := quantile(h, 0.10); got != 1 {
		t.Fatalf("p10=%v want 1", got)
	}
}

// TestQuantileInfEdges handles the +-Inf edge buckets runtime/metrics
// histograms really have: mass in the +Inf bucket reports the finite
// lower edge instead of infinity.
func TestQuantileInfEdges(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{1, 1, 8},
		Buckets: []float64{math.Inf(-1), 1, 2, math.Inf(1)},
	}
	got := quantile(h, 0.99)
	if math.IsInf(got, 0) || got != 2 {
		t.Fatalf("p99=%v want the finite edge 2", got)
	}
}

// TestQuantileEmpty keeps the empty histogram at zero.
func TestQuantileEmpty(t *testing.T) {
	h := &metrics.Float64Histogram{Counts: []uint64{0, 0}, Buckets: []float64{0, 1, 2}}
	if got := quantile(h, 0.99); got != 0 {
		t.Fatalf("empty histogram quantile=%v want 0", got)
	}
}

// TestReadSane takes a live snapshot after forcing a GC and checks the
// invariant fields — this is the fallback observability mode, so it must
// hold on any platform without privileges.
func TestReadSane(t *testing.T) {
	runtime.GC()
	s := Read()
	if s.Goroutines <= 0 {
		t.Fatalf("goroutines=%d, want > 0", s.Goroutines)
	}
	if s.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("gomaxprocs=%d want %d", s.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if s.HeapBytes == 0 {
		t.Fatal("heap_bytes=0")
	}
	if s.GCCycles == 0 {
		t.Fatal("gc_cycles=0 after runtime.GC()")
	}
	if s.GCCPUFraction < 0 || s.GCCPUFraction > 1 {
		t.Fatalf("gc_cpu_fraction=%v out of [0,1]", s.GCCPUFraction)
	}
	if s.GCPauseP99US < s.GCPauseP50US || s.SchedLatP99US < s.SchedLatP50US {
		t.Fatalf("percentile ordering violated: %+v", s)
	}
}
