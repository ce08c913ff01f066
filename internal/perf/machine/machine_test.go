package machine

import (
	"strings"
	"testing"

	"repro/internal/perf/counters"
	"repro/internal/perf/trace"
)

func TestTopologies(t *testing.T) {
	cases := map[ConfigID]struct {
		pkgs, cores, threads, lcpus int
	}{
		OneCPm: {1, 1, 1, 1},
		TwoCPm: {1, 2, 1, 2},
		OneLPx: {1, 1, 1, 1},
		TwoLPx: {1, 1, 2, 2},
		TwoPPx: {2, 1, 1, 2},
	}
	for id, want := range cases {
		topo := id.Topology()
		if topo.Packages != want.pkgs || topo.CoresPerPkg != want.cores || topo.ThreadsPerCore != want.threads {
			t.Errorf("%s topology = %+v", id, topo)
		}
		if topo.LogicalCPUs() != want.lcpus {
			t.Errorf("%s logical CPUs = %d, want %d", id, topo.LogicalCPUs(), want.lcpus)
		}
		m := New(id, Options{})
		if len(m.LCPUs) != want.lcpus {
			t.Errorf("%s machine has %d LCPUs", id, len(m.LCPUs))
		}
		if len(m.Packages) != want.pkgs {
			t.Errorf("%s machine has %d packages", id, len(m.Packages))
		}
	}
}

func TestSharedStructures(t *testing.T) {
	// 2CPm: two cores share one L2, have private L1s and predictors.
	m := New(TwoCPm, Options{})
	c0, c1 := m.Packages[0].Cores[0], m.Packages[0].Cores[1]
	if c0.L2 != c1.L2 {
		t.Error("2CPm cores do not share L2")
	}
	if c0.L1 == c1.L1 {
		t.Error("2CPm cores share L1")
	}
	if c0.Core.Pred == c1.Core.Pred {
		t.Error("2CPm cores share a branch predictor")
	}

	// 2LPx: two logical CPUs share core, L1, L2 and predictor.
	m = New(TwoLPx, Options{})
	lc0, lc1 := m.LCPUs[0], m.LCPUs[1]
	if lc0.Core != lc1.Core {
		t.Error("2LPx logical CPUs on different cores")
	}
	if lc0.Core.Pred != lc1.Core.Pred {
		t.Error("2LPx logical CPUs have private predictors without the ablation")
	}

	// 2PPx: fully private.
	m = New(TwoPPx, Options{})
	p0, p1 := m.Packages[0].Cores[0], m.Packages[1].Cores[0]
	if p0.L2 == p1.L2 || p0.L1 == p1.L1 {
		t.Error("2PPx packages share caches")
	}
}

func TestPrivatePredictorAblation(t *testing.T) {
	m := New(TwoLPx, Options{PrivatePredictors: true})
	if m.LCPUs[1].PredOverride == nil {
		t.Fatal("second SMT thread lacks a private predictor")
	}
	if m.LCPUs[0].PredOverride != nil {
		t.Fatal("first SMT thread should keep the shared predictor")
	}
}

func TestPrivateL2Ablation(t *testing.T) {
	m := New(TwoCPm, Options{PrivateL2: true})
	c0, c1 := m.Packages[0].Cores[0], m.Packages[0].Cores[1]
	if c0.L2 == c1.L2 {
		t.Fatal("ablation left the L2 shared")
	}
	want := pentiumM().L2.Size / 2
	if c0.L2.Config().Size != want {
		t.Fatalf("ablated L2 size = %d, want %d", c0.L2.Config().Size, want)
	}
}

func TestMemoryHierarchyBasics(t *testing.T) {
	m := New(OneCPm, Options{})
	lc := m.LCPUs[0]
	var cs counters.Set
	addr := uint64(1 << 30)

	// Cold read: L1 miss, L2 miss, DRAM reference over the bus.
	stall := lc.Mem.Access(0, addr, false, &cs)
	if stall <= 0 {
		t.Fatal("cold access free")
	}
	if cs.Get(counters.L1Misses) != 1 || cs.Get(counters.L2Misses) != 1 {
		t.Fatalf("miss counters = %d/%d", cs.Get(counters.L1Misses), cs.Get(counters.L2Misses))
	}
	if cs.Get(counters.BusTxns) == 0 {
		t.Fatal("no bus transaction for a DRAM read")
	}

	// Warm read: L1 hit, cheap.
	warm := lc.Mem.Access(100, addr, false, &cs)
	if warm >= stall {
		t.Fatalf("warm access (%v) not cheaper than cold (%v)", warm, stall)
	}
	if cs.Get(counters.L1Misses) != 1 {
		t.Fatal("warm access missed L1")
	}
}

func TestCrossCoreDirtyTransfer(t *testing.T) {
	m := New(TwoCPm, Options{})
	a, b := m.LCPUs[0], m.LCPUs[1]
	var csA, csB counters.Set
	addr := uint64(2 << 30)

	a.Mem.Access(0, addr, true, &csA) // dirty in core 0's L1
	stall := b.Mem.Access(10, addr, false, &csB)
	if stall <= 0 {
		t.Fatal("cross-core dirty pull free")
	}
	// Pentium M: intervention goes through memory — two bus txns.
	if csB.Get(counters.BusTxns) < 2 {
		t.Fatalf("intervention bus txns = %d, want >= 2", csB.Get(counters.BusTxns))
	}
	// The line must not be counted as an L2 miss (found on-package).
	if csB.Get(counters.L2Misses) != 0 {
		t.Fatal("intervention counted as L2 miss")
	}
}

func TestCrossPackageCoherence(t *testing.T) {
	m := New(TwoPPx, Options{})
	a, b := m.LCPUs[0], m.LCPUs[1]
	var csA, csB counters.Set
	addr := uint64(3 << 30)

	a.Mem.Access(0, addr, true, &csA)
	stall := b.Mem.Access(10, addr, false, &csB)
	if stall <= 0 {
		t.Fatal("cross-package pull free")
	}
	if csB.Get(counters.L2Misses) != 1 {
		t.Fatal("cross-package pull must miss the local L2")
	}

	// The writer re-acquiring ownership invalidates the reader's copy.
	csA.Reset()
	a.Mem.Access(20, addr, true, &csA)
	var csB2 counters.Set
	stall2 := b.Mem.Access(30, addr, false, &csB2)
	if stall2 <= 0 {
		t.Fatal("re-read after invalidation free")
	}
}

func TestFreeCoherenceAblation(t *testing.T) {
	base := New(TwoPPx, Options{})
	abl := New(TwoPPx, Options{FreeCoherence: true})
	addr := uint64(4 << 30)
	var cs counters.Set

	base.LCPUs[0].Mem.Access(0, addr, true, &cs)
	baseStall := base.LCPUs[1].Mem.Access(10, addr, false, &cs)

	abl.LCPUs[0].Mem.Access(0, addr, true, &cs)
	ablStall := abl.LCPUs[1].Mem.Access(10, addr, false, &cs)

	if ablStall >= baseStall {
		t.Fatalf("free coherence (%v) not cheaper than faithful (%v)", ablStall, baseStall)
	}
}

func TestPrefetcherGeneratesBusTraffic(t *testing.T) {
	m := New(OneCPm, Options{})
	lc := m.LCPUs[0]
	var cs counters.Set
	// Ascending stream of line-sized strides triggers the prefetcher.
	base := uint64(5 << 30)
	for i := 0; i < 32; i++ {
		lc.Mem.Access(uint64(i*100), base+uint64(i)*64, false, &cs)
	}
	demand := cs.Get(counters.L2Misses)
	txns := cs.Get(counters.BusTxns)
	if txns <= demand {
		t.Fatalf("prefetcher idle: txns=%d demand misses=%d", txns, demand)
	}

	// Ablated: transactions equal demand misses.
	m2 := New(OneCPm, Options{NoPrefetch: true})
	var cs2 counters.Set
	for i := 0; i < 32; i++ {
		m2.LCPUs[0].Mem.Access(uint64(i*100), base+uint64(i)*64, false, &cs2)
	}
	if cs2.Get(counters.BusTxns) != cs2.Get(counters.L2Misses) {
		t.Fatalf("no-prefetch txns=%d misses=%d", cs2.Get(counters.BusTxns), cs2.Get(counters.L2Misses))
	}
}

func TestDMAWriteInvalidates(t *testing.T) {
	m := New(OneCPm, Options{})
	lc := m.LCPUs[0]
	var cs counters.Set
	addr := uint64(6 << 30)
	lc.Mem.Access(0, addr, false, &cs)
	cs.Reset()
	lc.Mem.Access(10, addr, false, &cs)
	if cs.Get(counters.L1Misses) != 0 {
		t.Fatal("line not cached before DMA")
	}
	m.DMAWrite(20, addr, 64)
	cs.Reset()
	lc.Mem.Access(30, addr, false, &cs)
	if cs.Get(counters.L1Misses) != 1 {
		t.Fatal("DMA write did not invalidate the cached line")
	}
}

func TestWindowAccounting(t *testing.T) {
	m := New(TwoCPm, Options{})
	m.ResetWindow()
	m.LCPUs[0].Execute([]trace.Op{{Kind: trace.ALU, N: 1000}})
	end := m.MaxNow()
	m.CloseWindow(end)
	c0 := m.LCPUs[0].Counters
	c1 := m.LCPUs[1].Counters
	if c0.Get(counters.Clockticks) == 0 {
		t.Fatal("no clockticks on the busy CPU")
	}
	// The idle CPU ticks the same wall time but retires nothing.
	if c1.Get(counters.Clockticks) != c0.Get(counters.Clockticks) {
		t.Fatalf("clocktick mismatch: %d vs %d", c0.Get(counters.Clockticks), c1.Get(counters.Clockticks))
	}
	if c1.Get(counters.InstrRetired) != 0 {
		t.Fatal("idle CPU retired instructions")
	}
	sys := m.SystemCounters()
	if sys.Get(counters.InstrRetired) != c0.Get(counters.InstrRetired) {
		t.Fatal("system merge wrong")
	}
}

func TestSecondsCyclesRoundTrip(t *testing.T) {
	m := New(OneLPx, Options{})
	if got := m.Seconds(m.Cycles(0.5)); got < 0.4999 || got > 0.5001 {
		t.Fatalf("round trip = %v", got)
	}
}

func TestSpecsTable(t *testing.T) {
	out := SpecsTable()
	for _, want := range []string{"Pentium M", "Xeon", "1.83GHz", "3.16GHz", "2MB", "1MB", "667MHz", "gcc 3.4.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	for _, id := range AllConfigs {
		if id.Explanation() == "unknown configuration" {
			t.Errorf("%s has no explanation", id)
		}
	}
}

func TestMachineString(t *testing.T) {
	s := New(TwoLPx, Options{}).String()
	if !strings.Contains(s, "2LPx") || !strings.Contains(s, "Xeon") {
		t.Fatalf("machine string %q", s)
	}
}
