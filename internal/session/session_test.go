package session

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingWraparound pins the bounded-timeline contract: a ring of
// capacity 4 fed 10 samples keeps exactly the newest 4, in
// chronological order, while Total still reports the lifetime count.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Add(Sample{TMS: int64(i)})
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("total=%d want 10", got)
	}
	if got := r.Kept(); got != 4 {
		t.Fatalf("kept=%d want 4", got)
	}
	got := r.Last(0)
	want := []int64{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("Last(0) returned %d samples, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.TMS != want[i] {
			t.Fatalf("Last(0)[%d].TMS=%d want %d (full: %+v)", i, s.TMS, want[i], got)
		}
	}
	// A partial read returns the newest n, still chronological.
	got = r.Last(2)
	if len(got) != 2 || got[0].TMS != 8 || got[1].TMS != 9 {
		t.Fatalf("Last(2)=%+v want [8 9]", got)
	}
	// Asking for more than kept caps at kept.
	if got := r.Last(100); len(got) != 4 {
		t.Fatalf("Last(100) returned %d samples, want 4", len(got))
	}
}

// TestRingBeforeWrap covers the fill phase: fewer samples than capacity.
func TestRingBeforeWrap(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Add(Sample{TMS: int64(i)})
	}
	got := r.Last(0)
	if len(got) != 3 || got[0].TMS != 0 || got[2].TMS != 2 {
		t.Fatalf("Last(0)=%+v want [0 1 2]", got)
	}
}

// TestRingConcurrent hammers Add and Last concurrently; run under -race
// this is the timeline's concurrent sample/read safety proof. Every
// reader must observe a chronologically ordered window.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.Add(Sample{TMS: int64(i)})
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := r.Last(0)
				for j := 1; j < len(got); j++ {
					if got[j].TMS != got[j-1].TMS+1 {
						t.Errorf("non-contiguous window: %d then %d", got[j-1].TMS, got[j].TMS)
						return
					}
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestSamplerLifecycle runs a real session: samples accumulate at the
// interval, Close joins the goroutine (no leak), and fn is never called
// after Close returns.
func TestSamplerLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	s, err := Start(Config{Interval: time.Millisecond, Capacity: 8}, func() Sample {
		return Sample{TMS: calls.Add(1)}
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Total() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d samples after 5s", s.Total())
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	after := calls.Load()
	time.Sleep(10 * time.Millisecond)
	if got := calls.Load(); got != after {
		t.Fatalf("fn called after Close: %d -> %d", after, got)
	}
	s.Close() // idempotent
	// The sampler goroutine must be gone; allow scheduler settle time.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines %d > %d before Start — sampler leaked", runtime.NumGoroutine(), before)
}

// TestSamplerValidation rejects broken configs up front.
func TestSamplerValidation(t *testing.T) {
	if _, err := Start(Config{Interval: -time.Second}, func() Sample { return Sample{} }); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, err := Start(Config{Capacity: -1}, func() Sample { return Sample{} }); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := Start(Config{}, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	s, err := Start(Config{}, func() Sample { return Sample{} })
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	defer s.Close()
	if s.Interval() != DefaultInterval {
		t.Fatalf("interval=%v want default %v", s.Interval(), DefaultInterval)
	}
}

// TestWriteCSV pins the dump shape: header plus one row per sample with
// per-CPU CPI flattened to min/max.
func TestWriteCSV(t *testing.T) {
	samples := []Sample{
		{TMS: 1000, WindowSec: 0.1, Messages: 42, MsgsPerSec: 420, CPI: 1.5,
			DerivedSource: "hw",
			CPUs: []CPUSample{
				{CPU: 0, CPI: 1.2}, {CPU: 1, CPI: 1.9},
			}},
		{TMS: 1100, WindowSec: 0.1, DerivedSource: "model"},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "t_ms,window_sec,messages") || !strings.Contains(lines[0], ",cpus,cpu_cpi_min,cpu_cpi_max,") {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if !strings.Contains(lines[1], ",2,1.2,1.9,") {
		t.Fatalf("row 1 missing CPU count and CPI bounds: %q", lines[1])
	}
	if !strings.Contains(lines[2], "model") {
		t.Fatalf("row 2 missing derived source: %q", lines[2])
	}
}

// TestReadCSVRoundTrip pins the reader against the writer: a dumped
// session parses back with the replay-relevant fields intact, and the
// offered-load helper folds shed messages back into the arrival rate.
func TestReadCSVRoundTrip(t *testing.T) {
	samples := []Sample{
		{TMS: 1000, WindowSec: 0.5, Messages: 100, MsgsPerSec: 200, Shed: 50,
			LatencyP50US: 800, LatencyP99US: 4000, CPI: 1.5, DerivedSource: "hw",
			CPUs:       []CPUSample{{CPU: 0, CPI: 1.2}, {CPU: 1, CPI: 1.9}},
			GOMAXPROCS: 1, Goroutines: 12, GCCPUPct: 0.5},
		{TMS: 1500, WindowSec: 0.5, Messages: 120, MsgsPerSec: 240, DerivedSource: "model"},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d want 2", len(rows))
	}
	r := rows[0]
	if r.TMS != 1000 || r.Messages != 100 || r.MsgsPerSec != 200 || r.Shed != 50 {
		t.Fatalf("row 0 counters: %+v", r)
	}
	if r.LatencyP50US != 800 || r.LatencyP99US != 4000 || r.CPI != 1.5 || r.Source != "hw" {
		t.Fatalf("row 0 metrics: %+v", r)
	}
	// The scheduler width is recorded apart from the CPU count: a
	// replay models GOMAXPROCS servers, not the CPUs listed.
	if r.CPUs != 2 || r.GOMAXPROCS != 1 || r.Goroutines != 12 {
		t.Fatalf("row 0 gauges: %+v", r)
	}
	// 200 completed/s + 50 shed over 0.5s = 300 offered/s.
	if got := r.OfferedPerSec(); got != 300 {
		t.Fatalf("offered=%v want 300", got)
	}
	if rows[1].Source != "model" {
		t.Fatalf("row 1: %+v", rows[1])
	}

	// Header-only and missing-column inputs are rejected.
	if _, err := ReadCSV(strings.NewReader("t_ms,window_sec,messages,msgs_per_sec\n")); err == nil {
		t.Fatal("empty session accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("foreign csv accepted")
	}
}

// TestReadCSVCorruption pins the corrupt-cell contract: a non-empty cell
// that doesn't parse is a row-level error naming the column — never a
// silent zero — while empty cells and absent columns still read as
// zeros (schema tolerance).
func TestReadCSVCorruption(t *testing.T) {
	header := "t_ms,window_sec,messages,msgs_per_sec,cpi\n"
	cases := []struct {
		name, row, wantErr string
	}{
		{"garbage float", "1000,0.1,5,50,not-a-number\n", "cpi"},
		{"garbage uint", "1000,0.1,x,50,1.5\n", "messages"},
		{"garbage t_ms", "zzz,0.1,5,50,1.5\n", "t_ms"},
		{"empty t_ms", ",0.1,5,50,1.5\n", "t_ms"},
	}
	for _, tc := range cases {
		_, err := ReadCSV(strings.NewReader(header + tc.row))
		if err == nil {
			t.Fatalf("%s: corrupt row accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not name column %q", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(err.Error(), "row 2") {
			t.Fatalf("%s: error %q does not locate the row", tc.name, err)
		}
	}
	// Empty non-mandatory cells stay zeros.
	rows, err := ReadCSV(strings.NewReader(header + "1000,,5,50,\n"))
	if err != nil {
		t.Fatalf("empty cells rejected: %v", err)
	}
	if rows[0].WindowSec != 0 || rows[0].CPI != 0 || rows[0].Messages != 5 {
		t.Fatalf("row: %+v", rows[0])
	}
	// Extra leading columns (the fleet's merged CSV) are tolerated: the
	// reader locates columns by name.
	merged := "node,role,rel_ms," + header + "gw0,gateway,120,1000,0.1,5,50,1.5\n"
	rows, err = ReadCSV(strings.NewReader(merged))
	if err != nil {
		t.Fatalf("merged fleet csv rejected: %v", err)
	}
	if rows[0].TMS != 1000 || rows[0].CPI != 1.5 {
		t.Fatalf("merged row: %+v", rows[0])
	}
}

// TestRingSince pins the incremental-flush primitive: successive Since
// calls hand out each sample exactly once, and a watermark that outran
// the ring (slow poller) silently skips evicted samples.
func TestRingSince(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 3; i++ {
		r.Add(Sample{TMS: int64(i)})
	}
	got, wm := r.Since(0)
	if len(got) != 3 || wm != 3 || got[0].TMS != 0 || got[2].TMS != 2 {
		t.Fatalf("Since(0)=%+v wm=%d", got, wm)
	}
	if got, wm = r.Since(wm); len(got) != 0 || wm != 3 {
		t.Fatalf("idle Since=%+v wm=%d want empty,3", got, wm)
	}
	// Overrun: 6 more samples into a capacity-4 ring — only the kept 4
	// come back, oldest two are gone.
	for i := 3; i < 9; i++ {
		r.Add(Sample{TMS: int64(i)})
	}
	got, wm = r.Since(wm)
	if len(got) != 4 || wm != 9 || got[0].TMS != 5 || got[3].TMS != 8 {
		t.Fatalf("overrun Since=%+v wm=%d", got, wm)
	}
	// A stale watermark from a restarted ring restarts from scratch.
	if got, _ = r.Since(1 << 40); len(got) != 4 {
		t.Fatalf("stale watermark returned %d samples, want 4", len(got))
	}
}

// TestAppender pins the incremental CSV contract: one header, rows
// flushed per Append, and resume mode (writeHeader=false) emitting rows
// only — together they append into one well-formed artifact.
func TestAppender(t *testing.T) {
	var buf bytes.Buffer
	a := NewAppender(&buf, true)
	if err := a.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]Sample{{TMS: 1}, {TMS: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]Sample{{TMS: 3}}); err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 3 {
		t.Fatalf("rows=%d want 3", a.Rows())
	}
	// Resume into the same buffer: no second header.
	b := NewAppender(&buf, false)
	if err := b.Append([]Sample{{TMS: 4}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("artifact has %d lines, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if strings.Count(buf.String(), "t_ms,") != 1 {
		t.Fatalf("header repeated:\n%s", buf.String())
	}
	rows, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[3].TMS != 4 {
		t.Fatalf("round trip rows: %+v", rows)
	}
}
