package session

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hwcount"
)

// TestEveryLifecycle runs the one polling loop: calls accumulate at the
// interval, stop joins the goroutine (no leak), fn is never called after
// stop returns, and stop is idempotent.
func TestEveryLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	var calls atomic.Int64
	stop := Every(time.Millisecond, func() { calls.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d calls after 5s", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	after := calls.Load()
	time.Sleep(10 * time.Millisecond)
	if got := calls.Load(); got != after {
		t.Fatalf("fn called after stop: %d -> %d", after, got)
	}
	stop() // idempotent
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines %d > %d before Every — the loop leaked", runtime.NumGoroutine(), before)
}

// counts builds a synthetic cumulative reading of the event set.
func counts(cycles, instr, refs, misses, br, brMiss uint64) hwcount.Counts {
	var c hwcount.Counts
	c[hwcount.Cycles], c[hwcount.Instructions] = cycles, instr
	c[hwcount.CacheRefs], c[hwcount.CacheMisses] = refs, misses
	c[hwcount.Branches], c[hwcount.BranchMisses] = br, brMiss
	return c
}

// hwSample is a cumulative hardware-sourced observation as
// gateway.Snapshot.Sample builds it: the derived views come from the
// totals, and the counts ride along for the Windower.
func hwSample(tms int64, msgs uint64, proc hwcount.Counts, cpus ...hwcount.Counts) Sample {
	d := hwcount.Derive(proc)
	s := Sample{TMS: tms, Messages: msgs, DerivedSource: "hw", Counts: proc,
		CPI: d.CPI, CacheMPI: d.CacheMPI, BrMPR: d.BrMPR}
	for i, c := range cpus {
		cd := hwcount.Derive(c)
		s.CPUs = append(s.CPUs, CPUSample{CPU: i, DerivedSource: "hw", Counts: c,
			CPI: cd.CPI, CacheMPI: cd.CacheMPI, BrMPR: cd.BrMPR})
	}
	return s
}

// wantView fails unless (cpi, mpi, brmpr) is exactly d's view.
func wantView(t *testing.T, what string, cpi, mpi, brmpr float64, d hwcount.Derived) {
	t.Helper()
	if cpi != d.CPI || mpi != d.CacheMPI || brmpr != d.BrMPR {
		t.Errorf("%s: cpi/mpi/brmpr %v/%v/%v, want %v/%v/%v", what, cpi, mpi, brmpr, d.CPI, d.CacheMPI, d.BrMPR)
	}
}

// TestWindowDerivesDelta: a hardware-sourced window is hwcount.Derive
// of the counts' growth since the reader's previous sample — for the
// process and for each CPU — not the totals the sample arrived with.
func TestWindowDerivesDelta(t *testing.T) {
	var w Windower
	p0 := counts(1000, 1000, 100, 10, 200, 4)
	c0 := counts(600, 500, 60, 6, 100, 2)
	c1 := counts(400, 500, 40, 4, 100, 2)
	w.Window("gw", hwSample(1000, 50, p0, c0, c1))

	p1 := counts(4000, 2000, 300, 70, 600, 40)
	d0 := counts(1800, 1100, 160, 36, 300, 20)
	d1 := counts(2200, 900, 140, 34, 300, 20)
	in := hwSample(1500, 250, p1, d0, d1)
	s := w.Window("gw", in)

	if s.WindowSec != 0.5 || s.Messages != 200 || s.MsgsPerSec != 400 {
		t.Fatalf("window %v s, %d msgs, %v/s; want 0.5 s, 200, 400/s", s.WindowSec, s.Messages, s.MsgsPerSec)
	}
	wantView(t, "process", s.CPI, s.CacheMPI, s.BrMPR, hwcount.Derive(p1.Sub(p0)))
	if len(s.CPUs) != 2 {
		t.Fatalf("%d CPU entries, want 2", len(s.CPUs))
	}
	wantView(t, "cpu 0", s.CPUs[0].CPI, s.CPUs[0].CacheMPI, s.CPUs[0].BrMPR, hwcount.Derive(d0.Sub(c0)))
	wantView(t, "cpu 1", s.CPUs[1].CPI, s.CPUs[1].CacheMPI, s.CPUs[1].BrMPR, hwcount.Derive(d1.Sub(c1)))
	if s.CPUs[0].DerivedSource != "hw" || s.DerivedSource != "hw" {
		t.Errorf("sources %q / %q, want hw", s.DerivedSource, s.CPUs[0].DerivedSource)
	}
	// The caller's cumulative sample is left as it was.
	wantView(t, "input cpu 0", in.CPUs[0].CPI, in.CPUs[0].CacheMPI, in.CPUs[0].BrMPR, hwcount.Derive(d0))
}

// TestWindowIdleDerivesTotals: a window that retired no instructions
// keeps the view derived from the totals, process and per CPU, so a
// reader that raced the load never reads CPI 0.
func TestWindowIdleDerivesTotals(t *testing.T) {
	var w Windower
	p := counts(3000, 1500, 90, 9, 300, 6)
	c := counts(1500, 750, 45, 5, 150, 3)
	w.Window("gw", hwSample(1000, 10, p, c))
	// Cycles ticked (an idle spin), no instruction retired.
	s := w.Window("gw", hwSample(1100, 10, counts(3100, 1500, 90, 9, 300, 6), counts(1550, 750, 45, 5, 150, 3)))
	if s.WindowSec != 0.1 {
		t.Fatalf("window %v s, want 0.1", s.WindowSec)
	}
	wantView(t, "process", s.CPI, s.CacheMPI, s.BrMPR, hwcount.Derive(counts(3100, 1500, 90, 9, 300, 6)))
	wantView(t, "cpu 0", s.CPUs[0].CPI, s.CPUs[0].CacheMPI, s.CPUs[0].BrMPR, hwcount.Derive(counts(1550, 750, 45, 5, 150, 3)))
	if s.CPI <= 0 || s.CPUs[0].CPI <= 0 {
		t.Errorf("idle window read CPI %v / %v, want the totals' > 0", s.CPI, s.CPUs[0].CPI)
	}
}

// TestWindowModelPassesThrough: model-sourced views are constants and
// pass through every window unchanged — also when the previous sample
// was hardware-sourced (a failed perf read), which must not re-prime.
func TestWindowModelPassesThrough(t *testing.T) {
	var w Windower
	model := func(tms int64, msgs uint64) Sample {
		return Sample{TMS: tms, Messages: msgs, CPI: 1.22, CacheMPI: 0.17, BrMPR: 1.04, DerivedSource: "model",
			CPUs: []CPUSample{{CPU: 0, CPI: 1.22, CacheMPI: 0.17, BrMPR: 1.04, DerivedSource: "model"}}}
	}
	w.Window("gw", model(1000, 0))
	for i, s := range []Sample{
		w.Window("gw", model(1200, 40)),
		w.Window("gw", hwSample(1400, 80, counts(100, 100, 1, 1, 10, 1))),
		w.Window("gw", model(1600, 120)),
	} {
		if s.WindowSec != 0.2 || s.Messages != 40 {
			t.Errorf("step %d: window %v s, %d msgs; want 0.2 s, 40", i, s.WindowSec, s.Messages)
		}
		if s.DerivedSource == "model" && (s.CPI != 1.22 || s.CacheMPI != 0.17 || s.BrMPR != 1.04 || s.CPUs[0].CPI != 1.22) {
			t.Errorf("step %d: model view changed: %+v", i, s)
		}
	}
}

// TestWindowCountsBackwardsReprime: counts that went backwards mean the
// counter groups were reopened (the node restarted), so the sample only
// re-primes — and the next one windows against the new life.
func TestWindowCountsBackwardsReprime(t *testing.T) {
	var w Windower
	w.Window("gw", hwSample(1000, 100, counts(9000, 9000, 90, 9, 900, 9)))
	w.Window("gw", hwSample(2000, 200, counts(18000, 12000, 120, 12, 1200, 12)))
	restart := counts(500, 400, 4, 1, 40, 1)
	s := w.Window("gw", hwSample(2500, 210, restart))
	if s.WindowSec != 0 || s.Messages != 0 || s.MsgsPerSec != 0 {
		t.Fatalf("backwards counts windowed: %+v, want a zero-window priming sample", s)
	}
	wantView(t, "re-primed", s.CPI, s.CacheMPI, s.BrMPR, hwcount.Derive(restart))
	next := counts(2500, 1400, 14, 3, 240, 9)
	s = w.Window("gw", hwSample(3000, 260, next))
	if s.WindowSec != 0.5 || s.Messages != 50 {
		t.Fatalf("after re-prime: window %v s, %d msgs; want 0.5 s, 50", s.WindowSec, s.Messages)
	}
	wantView(t, "after re-prime", s.CPI, s.CacheMPI, s.BrMPR, hwcount.Derive(next.Sub(restart)))
}

// TestWindowTwoCadences is the property the cumulative /stats exists
// for: two readers windowing one cumulative stream at different
// cadences — a 10 ms reader and a 50 ms one, interleaved — each get
// exactly their own spans: their own TMS steps, message deltas and
// counter deltas, never a window shortened by the other's reads.
func TestWindowTwoCadences(t *testing.T) {
	var fast, slow Windower
	var stream []Sample
	var msgs uint64
	var c hwcount.Counts
	for i := 0; i <= 100; i++ {
		// Uneven growth, so a window cut over the wrong span shows.
		instr := uint64(1000 + 37*(i%7))
		c[hwcount.Cycles] += instr * uint64(1+i%3)
		c[hwcount.Instructions] += instr
		c[hwcount.CacheRefs] += uint64(10 + i%5)
		c[hwcount.CacheMisses] += uint64(1 + i%4)
		c[hwcount.Branches] += instr / 5
		c[hwcount.BranchMisses] += uint64(i % 6)
		msgs += uint64(3 + i%11)
		stream = append(stream, hwSample(int64(1000+10*i), msgs, c, c))
	}
	// want fails unless s is exactly the window from stream[i-steps] to
	// stream[i].
	want := func(name string, s Sample, i, steps int) {
		t.Helper()
		cur, prev := stream[i], stream[i-steps]
		sec := float64(steps) * 0.01
		if d := s.WindowSec - sec; d > 1e-9 || d < -1e-9 || s.Messages != cur.Messages-prev.Messages {
			t.Fatalf("%s reader at %d: window %v s, %d msgs; want %v s, %d", name, i, s.WindowSec, s.Messages,
				sec, cur.Messages-prev.Messages)
		}
		d := hwcount.Derive(cur.Counts.Sub(prev.Counts))
		wantView(t, name+" process", s.CPI, s.CacheMPI, s.BrMPR, d)
		wantView(t, name+" cpu", s.CPUs[0].CPI, s.CPUs[0].CacheMPI, s.CPUs[0].BrMPR, d)
	}
	fast.Window("gw", stream[0])
	slow.Window("gw", stream[0])
	// Interleaved on one stream: the fast reader reads every step, the
	// slow one every fifth.
	for i := 1; i < len(stream); i++ {
		want("fast", fast.Window("gw", stream[i]), i, 1)
		if i%5 == 0 {
			want("slow", slow.Window("gw", stream[i]), i, 5)
		}
	}
}

// TestWindowGCShare: a window's GC share is the GC CPU seconds' growth
// over the available CPU seconds' growth since the reader's previous
// sample, not the share since the process started; a window with no CPU
// time keeps the share of the totals.
func TestWindowGCShare(t *testing.T) {
	var w Windower
	cum := func(tms int64, gc, total float64) Sample {
		return Sample{TMS: tms, GCCPUSec: gc, TotalCPUSec: total, GCCPUPct: 100 * gc / total}
	}
	// Two seconds of start-up at 40 % GC, then a window at 5 %.
	w.Window("gw", cum(1000, 0.8, 2))
	s := w.Window("gw", cum(2000, 0.9, 4))
	if d := s.GCCPUPct - 5; d > 1e-9 || d < -1e-9 {
		t.Fatalf("window gc%% %v, want 5 (the totals read %v)", s.GCCPUPct, 100*0.9/4)
	}
	// No CPU time in the window: the totals' share stands.
	s = w.Window("gw", cum(2100, 0.9, 4))
	if s.GCCPUPct != 100*0.9/4 {
		t.Fatalf("empty window gc%% %v, want the totals' %v", s.GCCPUPct, 100*0.9/4)
	}
}
