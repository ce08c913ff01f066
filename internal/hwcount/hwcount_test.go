package hwcount

import (
	"math"
	"testing"
)

// inject builds a Counts from hand-written raw readings, applying the
// same per-event scaling the live read path applies.
func inject(raw [NumEvents]uint64, enabledNS, runningNS uint64) Counts {
	var c Counts
	for e := Event(0); e < NumEvents; e++ {
		c[e] = scaleValue(raw[e], enabledNS, runningNS)
	}
	return c
}

// TestScaleValue pins the multiplexing extrapolation: raw * enabled /
// running, exact when the counter ran the whole window, zero when it
// never ran.
func TestScaleValue(t *testing.T) {
	cases := []struct {
		raw, enabled, running, want uint64
	}{
		{1000, 100, 100, 1000}, // ran the whole window: exact
		{1000, 100, 50, 2000},  // ran half the window: doubled
		{900, 300, 100, 2700},  // one third: tripled
		{1000, 100, 0, 0},      // never scheduled: zero, not a divide
		{0, 100, 50, 0},        // nothing counted scales to nothing
		{1000, 50, 100, 1000},  // running > enabled (clock skew): clamp to raw
	}
	for _, c := range cases {
		if got := scaleValue(c.raw, c.enabled, c.running); got != c.want {
			t.Errorf("scaleValue(%d,%d,%d)=%d want %d", c.raw, c.enabled, c.running, got, c.want)
		}
	}
}

// TestDeriveHandComputed feeds a hand-built counter window through
// Derive and checks every paper metric against the arithmetic done by
// hand: 10e9 cycles / 4e9 instr = CPI 2.5; 20e6 LLC misses / 4e9 instr =
// 0.5% cache MPI; 1e9 branches / 4e9 instr = 25% branch frequency;
// 30e6 mispredicts / 1e9 branches = 3% BrMPR; 20e6 misses / 80e6 refs =
// 25% miss ratio.
func TestDeriveHandComputed(t *testing.T) {
	var c Counts
	c[Cycles] = 10_000_000_000
	c[Instructions] = 4_000_000_000
	c[CacheRefs] = 80_000_000
	c[CacheMisses] = 20_000_000
	c[Branches] = 1_000_000_000
	c[BranchMisses] = 30_000_000

	d := Derive(c)
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !approx(d.CPI, 2.5) {
		t.Errorf("CPI=%v want 2.5", d.CPI)
	}
	if !approx(d.CacheMPI, 0.5) {
		t.Errorf("CacheMPI=%v want 0.5", d.CacheMPI)
	}
	if !approx(d.CacheMissRatio, 25) {
		t.Errorf("CacheMissRatio=%v want 25", d.CacheMissRatio)
	}
	if !approx(d.BranchFreq, 25) {
		t.Errorf("BranchFreq=%v want 25", d.BranchFreq)
	}
	if !approx(d.BrMPR, 3) {
		t.Errorf("BrMPR=%v want 3", d.BrMPR)
	}
}

// TestDeriveScaledReadings chains scaling into derivation: raw readings
// from a counter set that ran only half its window must derive the same
// ratios as the unscaled ideal, because every event scales by the same
// factor — the property that makes multiplexed CPI trustworthy.
func TestDeriveScaledReadings(t *testing.T) {
	raw := [NumEvents]uint64{}
	raw[Cycles] = 5_000_000
	raw[Instructions] = 2_000_000
	raw[CacheRefs] = 40_000
	raw[CacheMisses] = 10_000
	raw[Branches] = 500_000
	raw[BranchMisses] = 15_000

	half := inject(raw, 2_000_000_000, 1_000_000_000) // multiplexed 50%
	full := inject(raw, 2_000_000_000, 2_000_000_000)

	if half.Get(Cycles) != 2*full.Get(Cycles) {
		t.Fatalf("scaled cycles %d, want doubled %d", half.Get(Cycles), 2*full.Get(Cycles))
	}
	dh, df := Derive(half), Derive(full)
	if math.Abs(dh.CPI-df.CPI) > 1e-9 || math.Abs(dh.BrMPR-df.BrMPR) > 1e-9 {
		t.Fatalf("ratios drifted under uniform scaling: half=%+v full=%+v", dh, df)
	}
	if math.Abs(dh.CPI-2.5) > 1e-9 {
		t.Fatalf("CPI=%v want 2.5", dh.CPI)
	}
}

// TestDeriveEmptyWindow keeps the zero window well-defined: no
// instructions means every per-instruction ratio is zero, not NaN/Inf.
func TestDeriveEmptyWindow(t *testing.T) {
	d := Derive(Counts{})
	if d.CPI != 0 || d.CacheMPI != 0 || d.BrMPR != 0 || d.BranchFreq != 0 || d.CacheMissRatio != 0 {
		t.Fatalf("zero window derived non-zero: %+v", d)
	}
}

// TestCountsSubAndMap covers windowed deltas and the /stats JSON shape.
func TestCountsSubAndMap(t *testing.T) {
	var prev, cur Counts
	for e := Event(0); e < NumEvents; e++ {
		prev[e] = uint64(100 * (int(e) + 1))
		cur[e] = uint64(250 * (int(e) + 1))
	}
	delta := cur.Sub(prev)
	for e := Event(0); e < NumEvents; e++ {
		if want := uint64(150 * (int(e) + 1)); delta.Get(e) != want {
			t.Fatalf("delta[%s]=%d want %d", e, delta.Get(e), want)
		}
	}
	m := delta.EventsMap()
	if len(m) != int(NumEvents) {
		t.Fatalf("events map has %d keys, want %d", len(m), NumEvents)
	}
	if m["cpu-cycles"] != delta.Get(Cycles) || m["branch-misses"] != delta.Get(BranchMisses) {
		t.Fatalf("events map mismatch: %v vs %v", m, delta)
	}
}

// TestSupportedMatchesOpen keeps the platform predicate honest: on a
// platform where Supported reports false, Open must fail with
// errUnsupported; where it reports true, Open may succeed or fail with
// the host's runtime denial, never errUnsupported-by-construction.
func TestSupportedMatchesOpen(t *testing.T) {
	if Supported() {
		return // runtime outcome is host-dependent; nothing to pin
	}
	if _, err := Open(); err != errUnsupported {
		t.Fatalf("unsupported platform Open error = %v, want errUnsupported", err)
	}
	if _, err := OpenCPU(0); err != errUnsupported {
		t.Fatalf("unsupported platform OpenCPU error = %v, want errUnsupported", err)
	}
}

// TestOpenLive opportunistically opens the real event set. On hosts
// without perf access (no PMU, paranoid, seccomp) it verifies the error
// path instead — both outcomes are the contract.
func TestOpenLive(t *testing.T) {
	g, err := Open()
	if err != nil {
		t.Skipf("perf events unavailable here (fallback path is live): %v", err)
	}
	defer g.Close()
	// Burn some cycles so the window isn't empty.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	r, err := g.Read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if r.Counts.Get(Cycles) == 0 || r.Counts.Get(Instructions) == 0 {
		t.Fatalf("live counters empty after busy loop: %+v", r.Counts)
	}
	if d := Derive(r.Counts); d.CPI <= 0 {
		t.Fatalf("live CPI %v, want > 0", d.CPI)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := g.Read(); err == nil {
		t.Fatal("read after close should fail")
	}
}
