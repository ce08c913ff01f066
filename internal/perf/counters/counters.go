// Package counters provides the on-chip performance-counter abstraction the
// paper's methodology is built on (Section 3.3): raw per-logical-CPU event
// counts (clockticks, instructions retired, cache misses, bus transactions,
// branch events, TLB misses) and the derived metrics reported in the
// evaluation — CPI, L2 misses per instruction (L2MPI), bus transactions per
// instruction (BTPI), branch frequency, and branch misprediction ratio
// (BrMPR).
package counters

import (
	"fmt"
	"strings"
)

// Event identifies one countable processor event, mirroring the VTune event
// list in the paper.
type Event int

const (
	// Clockticks counts elapsed core cycles, including idle/halted cycles:
	// system-wide VTune sampling attributes wall-clock cycles to every
	// logical CPU whether or not it retires instructions, which is what
	// makes CPI rise when a second processor sits idle (Section 4,
	// conclusion 1).
	Clockticks Event = iota
	// InstrRetired counts retired instructions.
	InstrRetired
	// L1Misses counts L1 data-cache misses.
	L1Misses
	// L2Misses counts unified L2 cache misses.
	L2Misses
	// DataMemAccesses counts data memory accesses (loads + stores).
	DataMemAccesses
	// BusTxns counts front-side bus transactions initiated by this CPU.
	BusTxns
	// BranchRetired counts retired branch instructions.
	BranchRetired
	// BranchMispredict counts retired mispredicted branches.
	BranchMispredict
	// TLBMisses counts data TLB misses.
	TLBMisses
	// BusyCycles counts non-idle cycles (cycles with a thread scheduled);
	// not a hardware counter per se, but needed to audit the idle model.
	BusyCycles
	// NumEvents is the number of defined events.
	NumEvents
)

var eventNames = [NumEvents]string{
	"clockticks",
	"instr-retired",
	"l1-misses",
	"l2-misses",
	"data-mem-accesses",
	"bus-txns",
	"branch-retired",
	"branch-mispredict",
	"tlb-misses",
	"busy-cycles",
}

func (e Event) String() string {
	if e < 0 || e >= NumEvents {
		return "invalid"
	}
	return eventNames[e]
}

// Set is one logical CPU's bank of counters.
type Set struct {
	counts [NumEvents]uint64
}

// Add increments event e by n.
func (s *Set) Add(e Event, n uint64) { s.counts[e] += n }

// Get returns the current value of event e.
func (s *Set) Get(e Event) uint64 { return s.counts[e] }

// Reset zeroes all counters.
func (s *Set) Reset() { s.counts = [NumEvents]uint64{} }

// Merge accumulates other into s; used to aggregate logical CPUs into the
// system-wide totals VTune sampling reports.
func (s *Set) Merge(other Set) {
	for i := range s.counts {
		s.counts[i] += other.counts[i]
	}
}

// Metrics are the derived ratios the paper's tables and figures report.
type Metrics struct {
	CPI        float64 // cycles per retired instruction
	L2MPI      float64 // L2 misses per retired instruction, as %
	BTPI       float64 // bus transactions per retired instruction, as %
	BranchFreq float64 // branch instructions per retired instruction, as %
	BrMPR      float64 // branch mispredictions per retired branch, as %
}

// Derive computes the paper's metrics from a counter bank (typically the
// system-wide merge over all logical CPUs).
func Derive(s Set) Metrics {
	instr := float64(s.Get(InstrRetired))
	var m Metrics
	if instr == 0 {
		return m
	}
	m.CPI = float64(s.Get(Clockticks)) / instr
	m.L2MPI = 100 * float64(s.Get(L2Misses)) / instr
	m.BTPI = 100 * float64(s.Get(BusTxns)) / instr
	m.BranchFreq = 100 * float64(s.Get(BranchRetired)) / instr
	if br := float64(s.Get(BranchRetired)); br > 0 {
		m.BrMPR = 100 * float64(s.Get(BranchMispredict)) / br
	}
	return m
}

// String renders the metrics in the units the paper uses.
func (m Metrics) String() string {
	return fmt.Sprintf("CPI=%.2f L2MPI=%.2f%% BTPI=%.2f%% BrFreq=%.0f%% BrMPR=%.2f%%",
		m.CPI, m.L2MPI, m.BTPI, m.BranchFreq, m.BrMPR)
}

// Format renders a counter bank as a readable multi-line table, used by
// the CLI tools and examples.
func (s Set) Format() string {
	var b strings.Builder
	for e := Event(0); e < NumEvents; e++ {
		fmt.Fprintf(&b, "%-20s %15d\n", e.String(), s.Get(e))
	}
	return b.String()
}
