package lhist

import (
	"sync"
	"testing"
	"time"
)

// TestQuantiles pins the log2-bucket math: percentiles are upper bucket
// bounds, mean and max are exact.
func TestQuantiles(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.MaxUS != 100 {
		t.Fatalf("count=%d max=%d", s.Count, s.MaxUS)
	}
	if s.P50US < 32 || s.P50US > 128 {
		t.Fatalf("p50=%d out of log-bucket range", s.P50US)
	}
	if s.P99US < s.P50US {
		t.Fatalf("p99=%d < p50=%d", s.P99US, s.P50US)
	}
	if s.MeanUS < 49 || s.MeanUS > 52 {
		t.Fatalf("mean=%f", s.MeanUS)
	}
}

// TestEmpty keeps the zero-value snapshot well-defined: all quantiles
// of an empty histogram are zero, not garbage upper bounds.
func TestEmpty(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if s.Count != 0 || s.MaxUS != 0 || s.MeanUS != 0 {
		t.Fatalf("zero hist snapshot: %+v", s)
	}
	if s.P50US != 0 || s.P90US != 0 || s.P99US != 0 {
		t.Fatalf("empty hist quantiles must be zero: %+v", s)
	}
}

// TestSingleSample: with one observation every percentile is that
// sample's bucket upper bound, and mean/max are the sample itself.
func TestSingleSample(t *testing.T) {
	var h Hist
	h.Observe(100 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 1 || s.MaxUS != 100 || s.MeanUS != 100 {
		t.Fatalf("single-sample snapshot: %+v", s)
	}
	// 100us lands in [64,128): upper bound 128 for every percentile.
	if s.P50US != 128 || s.P90US != 128 || s.P99US != 128 {
		t.Fatalf("single-sample quantiles: %+v", s)
	}
}

// TestMergeDisjointRanges: merging a fast histogram into a slow one must
// equal observing both ranges in a single histogram — counts, sum, max,
// and the quantiles that straddle the two populations.
func TestMergeDisjointRanges(t *testing.T) {
	var fast, slow, want Hist
	for i := 0; i < 120; i++ {
		d := time.Duration(i+1) * time.Microsecond // 1..120us
		fast.Observe(d)
		want.Observe(d)
	}
	for i := 0; i < 80; i++ {
		d := time.Duration(10000+i) * time.Microsecond // ~10ms
		slow.Observe(d)
		want.Observe(d)
	}
	slow.Merge(&fast)
	got, exp := slow.Snapshot(), want.Snapshot()
	if got != exp {
		t.Fatalf("merged snapshot %+v != combined %+v", got, exp)
	}
	if got.Count != 200 || got.MaxUS != 10079 {
		t.Fatalf("merged totals: %+v", got)
	}
	// p50 straddles the boundary: 60% of the samples are <=120us, so the
	// median upper bound stays in the fast population's buckets...
	if got.P50US > 128 {
		t.Fatalf("p50=%d should stay in the fast range", got.P50US)
	}
	// ...while p90/p99 land in the slow population.
	if got.P99US < 10000 {
		t.Fatalf("p99=%d should reach the slow range", got.P99US)
	}
}

// TestMergeIntoEmpty: merging into a zero-value histogram is a copy.
func TestMergeIntoEmpty(t *testing.T) {
	var src, dst Hist
	for i := 0; i < 50; i++ {
		src.Observe(time.Duration(i+1) * time.Millisecond)
	}
	dst.Merge(&src)
	if got, exp := dst.Snapshot(), src.Snapshot(); got != exp {
		t.Fatalf("merge-into-empty %+v != source %+v", got, exp)
	}
}

// TestConcurrentObserveAndMerge exercises Merge racing Observe on both
// sides under -race: totals must come out exact once all writers stop.
func TestConcurrentObserveAndMerge(t *testing.T) {
	var src, dst Hist
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				dst.Observe(time.Duration(g*1000+i+1) * time.Microsecond)
			}
		}(g)
	}
	for i := 0; i < 1000; i++ {
		src.Observe(time.Duration(i+1) * time.Microsecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst.Merge(&src)
	}()
	wg.Wait()
	if s := dst.Snapshot(); s.Count != 5000 {
		t.Fatalf("count=%d want 5000", s.Count)
	}
}

// TestConcurrentObserve exercises the atomics under -race.
func TestConcurrentObserve(t *testing.T) {
	var h Hist
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*1000+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count=%d want 8000", s.Count)
	}
}
