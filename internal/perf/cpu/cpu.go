// Package cpu implements the pipeline model of the simulated processors:
// logical CPUs that consume micro-op streams, physical cores that share
// issue bandwidth between SMT siblings, misprediction flushes, and memory
// stall accounting. It is deliberately a performance model, not a
// functional one — functional execution happens in the real Go workload
// code, which emits the op streams this package consumes.
package cpu

import (
	"repro/internal/perf/branch"
	"repro/internal/perf/codegen"
	"repro/internal/perf/counters"
	"repro/internal/perf/trace"
)

// Config describes one physical core's pipeline.
type Config struct {
	Name string
	// ClockHz is the core frequency; it converts cycles to wall time.
	ClockHz float64
	// IssueWidth is the peak retired instructions per cycle when a single
	// thread owns the core.
	IssueWidth float64
	// MispredictPenalty is the pipeline-flush cost in cycles. Netburst's
	// 31-stage pipeline pays roughly 2.5x the Pentium M's 12-stage one.
	MispredictPenalty float64
	// MemOverlap is the fraction of beyond-L1 memory latency hidden by
	// out-of-order execution and memory-level parallelism (0..1).
	MemOverlap float64
	// SMTOverhead multiplies per-instruction issue cost when both SMT
	// siblings are active, on top of the fair split of issue slots; it
	// models partitioned queues and replay interference.
	SMTOverhead float64
	// SMTStatic multiplies issue cost whenever Hyperthreading is enabled
	// (two logical CPUs exist on the core) even if the sibling is idle:
	// Netburst statically partitions its queues when HT is on, which is
	// why the paper's 2LPx configuration differs from 1LPx (HT disabled
	// in BIOS) even for a single busy thread.
	SMTStatic float64
}

// Memory is the interface to the cache/bus hierarchy (implemented by
// internal/perf/machine). Access performs one data-word access at global
// cycle now, records hierarchy events into cs, and returns the *visible*
// stall in cycles — the hierarchy applies the core's memory-level
// parallelism discount to overlappable latencies (cache and DRAM) and
// charges serializing latencies (cross-cache transfers, bus queueing) in
// full.
type Memory interface {
	Access(now uint64, addr uint64, write bool, cs *counters.Set) float64
	// ContextSwitch informs the hierarchy that the logical CPU switched
	// to a different address space (TLB flush).
	ContextSwitch()
}

// Core is one physical core: up to two logical CPUs sharing the pipeline,
// the branch predictor, and (via the machine wiring) the L1 cache.
type Core struct {
	Cfg     Config
	Pred    *branch.Predictor
	Profile codegen.Profile
	LCPUs   []*LCPU

	active int // logical CPUs currently executing a software thread
}

// NewCore builds a core with n logical CPUs (n == 2 models Hyperthreading).
func NewCore(cfg Config, pred *branch.Predictor, profile codegen.Profile, n int) *Core {
	c := &Core{Cfg: cfg, Pred: pred, Profile: profile}
	for i := 0; i < n; i++ {
		lc := &LCPU{Core: c, SMTIndex: i}
		c.LCPUs = append(c.LCPUs, lc)
	}
	return c
}

// LCPU is a logical CPU: the unit the OS schedules software threads onto
// and the granularity at which performance counters exist.
type LCPU struct {
	ID       int // global logical CPU index, assigned by the machine
	SMTIndex int
	Core     *Core
	Mem      Memory
	Counters counters.Set

	// PredOverride, when non-nil, replaces the core's shared predictor
	// for this logical CPU. It exists for the private-predictor ablation
	// that isolates the SMT predictor-sharing effect.
	PredOverride *branch.Predictor

	now     float64 // local clock, global cycle domain
	busy    float64 // cycles spent executing (not idling)
	running bool    // a software thread is currently scheduled here
	frac    float64 // fractional retired-instruction accumulator
}

// Busy returns the cycles this logical CPU spent executing instructions or
// context switches (as opposed to idling), since construction.
func (l *LCPU) Busy() float64 { return l.busy }

// Now returns the logical CPU's local clock in cycles.
func (l *LCPU) Now() uint64 { return uint64(l.now) }

// NowF returns the local clock with sub-cycle precision.
func (l *LCPU) NowF() float64 { return l.now }

// SyncTo advances the local clock to at least cycle t (idling: clockticks
// pass with no instructions retired). Used by the scheduler when the CPU
// waits for an event.
func (l *LCPU) SyncTo(t float64) {
	if t > l.now {
		l.now = t
	}
}

// SetRunning marks whether a software thread occupies this logical CPU;
// the core uses the count of running siblings to split issue bandwidth.
func (l *LCPU) SetRunning(r bool) {
	if r == l.running {
		return
	}
	l.running = r
	if r {
		l.Core.active++
	} else {
		l.Core.active--
	}
}

// Running reports whether a software thread occupies this logical CPU.
func (l *LCPU) Running() bool { return l.running }

// issueCost returns cycles per retired instruction under current SMT load.
func (l *LCPU) issueCost() float64 {
	c := 1.0 / l.Core.Cfg.IssueWidth
	switch {
	case l.Core.active > 1:
		c *= float64(l.Core.active) * l.Core.Cfg.SMTOverhead
	case len(l.Core.LCPUs) > 1 && l.Core.Cfg.SMTStatic > 0:
		c *= l.Core.Cfg.SMTStatic
	}
	return c
}

// retire charges n abstract ops expanded by factor into retired
// instructions and issue cycles, with fractional carry so long runs are
// exact.
func (l *LCPU) retire(n float64, expand float64) {
	insns := n*expand + l.frac
	whole := uint64(insns)
	l.frac = insns - float64(whole)
	l.Counters.Add(counters.InstrRetired, whole)
	l.now += insns * l.issueCost()
}

// Execute runs an op stream to completion on this logical CPU, advancing
// its clock and updating its counters. The stream is executed atomically
// with respect to simulated time slicing: callers chunk streams at the
// quantum granularity they need.
func (l *LCPU) Execute(ops []trace.Op) {
	start := l.now
	defer func() { l.busy += l.now - start }()
	cfg := &l.Core.Cfg
	for _, op := range ops {
		switch op.Kind {
		case trace.ALU:
			l.retire(float64(op.N), l.Core.Profile.ALUExpand)
		case trace.Load, trace.Store:
			write := op.Kind == trace.Store
			addr := op.Addr
			for i := uint32(0); i < op.N; i++ {
				l.retire(1, l.Core.Profile.MemExpand)
				l.Counters.Add(counters.DataMemAccesses, 1)
				if stall := l.Mem.Access(uint64(l.now), addr, write, &l.Counters); stall > 0 {
					l.now += stall
				}
				addr += trace.WordBytes
			}
		case trace.Branch:
			events := uint64(l.Core.Profile.BranchEvents)
			l.retire(float64(events), 1)
			l.Counters.Add(counters.BranchRetired, events)
			pred := l.Core.Pred
			if l.PredOverride != nil {
				pred = l.PredOverride
			}
			if pred.Predict(op.Addr, op.Taken) {
				l.Counters.Add(counters.BranchMispredict, 1)
				l.now += cfg.MispredictPenalty
			}
		}
	}
}

// contextSwitchCost is the direct cost in cycles of an OS context switch
// (register save/restore, scheduler path). Cache and TLB disturbance is
// modeled structurally by the hierarchy, not folded in here.
const contextSwitchCost = 1500

// ContextSwitch charges a context switch to a new process on this CPU.
// sameSpace indicates the incoming thread shares the outgoing thread's
// address space (no TLB flush).
func (l *LCPU) ContextSwitch(sameSpace bool) {
	l.now += contextSwitchCost
	l.busy += contextSwitchCost
	if !sameSpace && l.Mem != nil {
		l.Mem.ContextSwitch()
	}
}
