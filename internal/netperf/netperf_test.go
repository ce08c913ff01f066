package netperf

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/sim/sched"
)

// benchRun holds a steady-state measurement (post-warmup) of one run.
type benchRun struct {
	bench *Bench
	m     *machine.Machine
	mbps  float64
}

func runBench(t *testing.T, id machine.ConfigID, mode Mode, ms float64) benchRun {
	t.Helper()
	m := machine.New(id, machine.Options{})
	e := sched.NewEngine(m)
	var tx *netsim.Link
	if mode == EndToEnd {
		tx = netsim.NewLink(m, 1e9)
	}
	b := New(e, mode, tx)
	b.Spawn()
	// Warm up past the initial window burst, then measure a delta.
	warm := m.Cycles(1e-3)
	e.Run(func(*sched.Engine) bool { return m.MaxNow() >= warm })
	t0, b0 := m.MaxNow(), b.BytesReceived
	end := t0 + m.Cycles(ms*1e-3)
	e.Run(func(*sched.Engine) bool { return m.MaxNow() >= end })
	rate := float64(b.BytesReceived-b0) * 8 / m.Seconds(m.MaxNow()-t0) / 1e6
	return benchRun{bench: b, m: m, mbps: rate}
}

func TestLoopbackMovesData(t *testing.T) {
	r := runBench(t, machine.OneCPm, Loopback, 2)
	b, m := r.bench, r.m
	if b.BytesReceived == 0 {
		t.Fatal("no data moved")
	}
	if b.BytesReceived%sendSize != 0 {
		t.Fatalf("partial chunks received: %d", b.BytesReceived)
	}
	sys := m.SystemCounters()
	if sys.Get(counters.InstrRetired) == 0 {
		t.Fatal("no instructions")
	}
	// Loopback on a warm single core must not touch the bus much.
	metrics := counters.Derive(sys)
	if metrics.BTPI > 0.1 {
		t.Fatalf("single-CPU loopback BTPI = %.2f%%, want ~0", metrics.BTPI)
	}
}

func TestEndToEndSaturatesWire(t *testing.T) {
	r := runBench(t, machine.OneCPm, EndToEnd, 4)
	if r.mbps < 850 || r.mbps > 1000 {
		t.Fatalf("end-to-end throughput = %.0f Mbps, want ~937", r.mbps)
	}
}

func TestEndToEndWireBoundOnAllConfigs(t *testing.T) {
	var rates []float64
	for _, id := range machine.AllConfigs {
		rates = append(rates, runBench(t, id, EndToEnd, 3).mbps)
	}
	for i, r := range rates {
		if r < 850 || r > 1000 {
			t.Fatalf("config %s end-to-end = %.0f Mbps", machine.AllConfigs[i], r)
		}
	}
}

func TestLoopbackDualPackageCollapse(t *testing.T) {
	single := runBench(t, machine.OneLPx, Loopback, 3)
	dual := runBench(t, machine.TwoPPx, Loopback, 3)
	r1, r2 := single.mbps, dual.mbps
	if r2 >= 0.8*r1 {
		t.Fatalf("2PPx loopback did not collapse: %.0f vs %.0f Mbps", r2, r1)
	}
	// The collapse must come with heavy coherence bus traffic.
	d := counters.Derive(dual.m.SystemCounters())
	if d.BTPI < 0.5 {
		t.Fatalf("2PPx collapse without bus traffic: BTPI=%.2f%%", d.BTPI)
	}
}

func TestLoopbackDualCoreDegrades(t *testing.T) {
	single := runBench(t, machine.OneCPm, Loopback, 3)
	dual := runBench(t, machine.TwoCPm, Loopback, 3)
	r1, r2 := single.mbps, dual.mbps
	if r2 >= r1 {
		t.Fatalf("2CPm loopback did not degrade: %.0f vs %.0f Mbps", r2, r1)
	}
	if r2 < 0.4*r1 {
		t.Fatalf("2CPm degradation too severe (%.0f vs %.0f): shared L2 should soften it", r2, r1)
	}
}

func TestBranchFrequencyPlatformGap(t *testing.T) {
	pmRun := runBench(t, machine.OneCPm, Loopback, 2)
	xeRun := runBench(t, machine.OneLPx, Loopback, 2)
	pm := counters.Derive(pmRun.m.SystemCounters()).BranchFreq
	xe := counters.Derive(xeRun.m.SystemCounters()).BranchFreq
	ratio := pm / xe
	if ratio < 1.5 || ratio > 2.4 {
		t.Fatalf("branch-frequency ratio PM/Xeon = %.2f, want ~2 (Table 3)", ratio)
	}
}

func TestModeString(t *testing.T) {
	if Loopback.String() != "loopback" || EndToEnd.String() != "end-to-end" {
		t.Fatal("mode names wrong")
	}
}
