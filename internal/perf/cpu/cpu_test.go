package cpu

import (
	"testing"

	"repro/internal/perf/branch"
	"repro/internal/perf/counters"
	"repro/internal/perf/trace"
)

// flatMemory is a stub hierarchy with a fixed stall per access.
type flatMemory struct {
	stall    float64
	accesses int
	flushes  int
}

func (f *flatMemory) Access(_ uint64, _ uint64, _ bool, _ *counters.Set) float64 {
	f.accesses++
	return f.stall
}
func (f *flatMemory) ContextSwitch() { f.flushes++ }

// testCore builds a core whose branches retire branchEvents counted
// branch instructions each: 2 as on the Pentium M, 1 as on Netburst.
func testCore(width float64, smt, branchEvents int) (*Core, *flatMemory) {
	cfg := Config{
		Name: "test", ClockHz: 1e9, IssueWidth: width,
		MispredictPenalty: 10, MemOverlap: 0.5, SMTOverhead: 1.0,
		BranchEvents: branchEvents,
	}
	pred := branch.New(branch.Config{PatternBits: 10, HistoryBits: 4})
	core := NewCore(cfg, pred, smt)
	mem := &flatMemory{}
	for _, lc := range core.LCPUs {
		lc.Mem = mem
	}
	return core, mem
}

func TestALURetirement(t *testing.T) {
	core, _ := testCore(1.0, 1, 2)
	lc := core.LCPUs[0]
	lc.SetRunning(true)
	lc.Execute([]trace.Op{{Kind: trace.ALU, N: 100}})
	if got := lc.Counters.Get(counters.InstrRetired); got != 100 {
		t.Fatalf("retired %d, want 100", got)
	}
	if lc.Now() != 100 {
		t.Fatalf("cycles %d, want 100 at width 1", lc.Now())
	}
}

func TestMemoryAccessAccounting(t *testing.T) {
	core, mem := testCore(1.0, 1, 2)
	mem.stall = 7
	lc := core.LCPUs[0]
	lc.SetRunning(true)
	lc.Execute([]trace.Op{{Kind: trace.Load, Addr: 0x1000, N: 4}})
	if mem.accesses != 4 {
		t.Fatalf("accesses = %d", mem.accesses)
	}
	if got := lc.Counters.Get(counters.DataMemAccesses); got != 4 {
		t.Fatalf("counter = %d", got)
	}
	// 4 instructions at width 1 + 4 stalls of 7.
	if lc.NowF() < 31.9 || lc.NowF() > 32.1 {
		t.Fatalf("cycles %.1f, want 32", lc.NowF())
	}
}

func TestBranchEventsPerProfile(t *testing.T) {
	for _, events := range []int{2, 1} { // Pentium M, Netburst
		core, _ := testCore(1.0, 1, events)
		lc := core.LCPUs[0]
		lc.SetRunning(true)
		lc.Execute([]trace.Op{{Kind: trace.Branch, Addr: 0x40, N: 1, Taken: true}})
		if got := lc.Counters.Get(counters.BranchRetired); got != uint64(events) {
			t.Errorf("BranchEvents %d: branch events = %d", events, got)
		}
		if got := lc.Counters.Get(counters.InstrRetired); got != uint64(events) {
			t.Errorf("BranchEvents %d: instr = %d", events, got)
		}
	}
}

func TestMispredictPenalty(t *testing.T) {
	core, _ := testCore(1.0, 1, 1)
	lc := core.LCPUs[0]
	lc.SetRunning(true)
	// Train an always-taken branch, then flip the outcome.
	ops := make([]trace.Op, 50)
	for i := range ops {
		ops[i] = trace.Op{Kind: trace.Branch, Addr: 0x80, N: 1, Taken: true}
	}
	lc.Execute(ops)
	before := lc.NowF()
	missBefore := lc.Counters.Get(counters.BranchMispredict)
	lc.Execute([]trace.Op{{Kind: trace.Branch, Addr: 0x80, N: 1, Taken: false}})
	if got := lc.Counters.Get(counters.BranchMispredict); got != missBefore+1 {
		t.Fatalf("mispredict not counted")
	}
	delta := lc.NowF() - before
	if delta < 10 { // 1 issue cycle + 10 penalty
		t.Fatalf("flush cost %.1f cycles", delta)
	}
}

func TestSMTIssueSharing(t *testing.T) {
	core, _ := testCore(1.0, 2, 1)
	a, b := core.LCPUs[0], core.LCPUs[1]
	a.SetRunning(true)
	a.Execute([]trace.Op{{Kind: trace.ALU, N: 100}})
	solo := a.NowF()

	b.SetRunning(true) // sibling becomes active
	a.Execute([]trace.Op{{Kind: trace.ALU, N: 100}})
	shared := a.NowF() - solo
	if shared <= solo*1.5 {
		t.Fatalf("co-running issue cost %.1f not ~2x solo %.1f", shared, solo)
	}
}

func TestSMTStaticPartition(t *testing.T) {
	cfg := Config{Name: "s", ClockHz: 1e9, IssueWidth: 1.0, MispredictPenalty: 10, MemOverlap: 0.5, SMTOverhead: 1.0, SMTStatic: 1.5}
	pred := branch.New(branch.Config{PatternBits: 10, HistoryBits: 4})
	core := NewCore(cfg, pred, 2)
	mem := &flatMemory{}
	core.LCPUs[0].Mem = mem
	lc := core.LCPUs[0]
	lc.SetRunning(true)
	lc.Execute([]trace.Op{{Kind: trace.ALU, N: 100}})
	if lc.NowF() < 149 || lc.NowF() > 151 {
		t.Fatalf("static-partitioned cycles %.1f, want 150", lc.NowF())
	}
}

// A cold predictor guesses taken, so a never-taken branch mispredicts
// once and is then learned. Only the predictor that took the lookups
// has learned it.
func TestPredOverride(t *testing.T) {
	core, _ := testCore(1.0, 2, 1)
	lc := core.LCPUs[1]
	lc.PredOverride = branch.New(branch.Config{PatternBits: 10, HistoryBits: 4})
	lc.SetRunning(true)
	ops := make([]trace.Op, 4)
	for i := range ops {
		ops[i] = trace.Op{Kind: trace.Branch, Addr: 0x99, N: 1, Taken: false}
	}
	lc.Execute(ops)
	if got := lc.Counters.Get(counters.BranchMispredict); got != 1 {
		t.Fatalf("mispredicts = %d, want 1 (the cold guess)", got)
	}
	if !core.Pred.Predict(0x99, false) {
		t.Fatal("shared predictor consulted despite override")
	}
	if lc.PredOverride.Predict(0x99, false) {
		t.Fatal("override predictor not consulted")
	}
}

func TestContextSwitch(t *testing.T) {
	core, mem := testCore(1.0, 1, 2)
	lc := core.LCPUs[0]
	before := lc.NowF()
	lc.ContextSwitch(true)
	if lc.NowF()-before != contextSwitchCost {
		t.Fatal("switch cost wrong")
	}
	if mem.flushes != 0 {
		t.Fatal("same-space switch flushed TLB")
	}
	lc.ContextSwitch(false)
	if mem.flushes != 1 {
		t.Fatal("cross-space switch did not flush TLB")
	}
}

func TestSyncToAndBusy(t *testing.T) {
	core, _ := testCore(1.0, 1, 2)
	lc := core.LCPUs[0]
	lc.SetRunning(true)
	lc.Execute([]trace.Op{{Kind: trace.ALU, N: 50}})
	busyBefore := lc.Busy()
	lc.SyncTo(10_000) // idle jump
	if lc.Busy() != busyBefore {
		t.Fatal("idle time counted as busy")
	}
	if lc.Now() != 10_000 {
		t.Fatalf("now = %d", lc.Now())
	}
	lc.SyncTo(5) // backwards: no-op
	if lc.Now() != 10_000 {
		t.Fatal("SyncTo moved the clock backwards")
	}
}

func TestRunningToggle(t *testing.T) {
	core, _ := testCore(1.0, 2, 1)
	a, b := core.LCPUs[0], core.LCPUs[1]
	a.SetRunning(true)
	a.SetRunning(true) // idempotent
	if core.active != 1 {
		t.Fatalf("active = %d", core.active)
	}
	b.SetRunning(true)
	if core.active != 2 {
		t.Fatalf("active = %d", core.active)
	}
	a.SetRunning(false)
	b.SetRunning(false)
	if core.active != 0 {
		t.Fatalf("active = %d", core.active)
	}
	if a.Running() {
		t.Fatal("running flag stuck")
	}
}

func TestFractionalRetirementExact(t *testing.T) {
	// Width 3: per-instruction cost 1/3 cycle; 300 instructions must land
	// on exactly 100 cycles (no drift from fractional accumulation).
	core, _ := testCore(3.0, 1, 2)
	lc := core.LCPUs[0]
	lc.SetRunning(true)
	for i := 0; i < 300; i++ {
		lc.Execute([]trace.Op{{Kind: trace.ALU, N: 1}})
	}
	if lc.NowF() < 99.9 || lc.NowF() > 100.1 {
		t.Fatalf("cycles %.3f, want 100", lc.NowF())
	}
	if lc.Counters.Get(counters.InstrRetired) != 300 {
		t.Fatalf("retired %d", lc.Counters.Get(counters.InstrRetired))
	}
}
