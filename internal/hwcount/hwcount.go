// Package hwcount reads real on-chip performance counters for the live
// gateway — the hardware half of the paper's VTune methodology (Section
// 3.3). Where internal/perf/counters models the event bank inside the
// simulator, hwcount opens the genuine article through the Linux
// perf_event_open(2) syscall, cgo-free: an event set covering the paper's
// measurement list (cycles, instructions retired, last-level cache
// references/misses, branches retired/mispredicted), opened per-process
// so the whole serving path is attributed, and read with
// time_enabled/time_running scaling so multiplexed counters stay honest.
//
// The derived-metrics layer mirrors the paper's definitions exactly:
// CPI = clockticks / instructions retired, cache MPI (the L2MPI analog) =
// 100 x LLC misses / instructions, BrMPR = 100 x mispredicted branches /
// retired branches, branch frequency = 100 x branches / instructions.
//
// Hosts without perf access (unprivileged containers, CI, non-Linux) make
// Open return an error; callers degrade to internal/runstats and keep
// serving — counters are observability, never a hard dependency.
package hwcount

import (
	"errors"
	"runtime"
)

// Event identifies one hardware event in the fixed measurement set. The
// set matches the paper's VTune event list, translated to the generalized
// PERF_TYPE_HARDWARE events every perf-capable kernel exposes.
type Event int

const (
	// Cycles is PERF_COUNT_HW_CPU_CYCLES — the paper's clockticks.
	Cycles Event = iota
	// Instructions is PERF_COUNT_HW_INSTRUCTIONS — instructions retired.
	Instructions
	// CacheRefs is PERF_COUNT_HW_CACHE_REFERENCES — last-level cache
	// accesses, the denominator context for miss ratios.
	CacheRefs
	// CacheMisses is PERF_COUNT_HW_CACHE_MISSES — last-level cache
	// misses, the live analog of the paper's L2 misses.
	CacheMisses
	// Branches is PERF_COUNT_HW_BRANCH_INSTRUCTIONS — branches retired.
	Branches
	// BranchMisses is PERF_COUNT_HW_BRANCH_MISSES — mispredicted
	// branches retired.
	BranchMisses
	// NumEvents is the size of the fixed event set.
	NumEvents
)

var eventNames = [NumEvents]string{
	"cpu-cycles",
	"instructions",
	"cache-references",
	"cache-misses",
	"branch-instructions",
	"branch-misses",
}

func (e Event) String() string {
	if e < 0 || e >= NumEvents {
		return "invalid"
	}
	return eventNames[e]
}

// ErrUnsupported means this platform cannot open perf events at all
// (non-Linux build, or an architecture without a syscall number wired).
var ErrUnsupported = errors.New("hwcount: perf events unsupported on this platform")

// sequentialCPUs is the CPU list where the affinity set cannot be read:
// ids 0..runtime.NumCPU()-1.
func sequentialCPUs() []int {
	ids := make([]int, runtime.NumCPU())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Counts is one scaled reading of the full event set.
type Counts [NumEvents]uint64

// Get returns event e's count.
func (c Counts) Get(e Event) uint64 { return c[e] }

// Sub returns c - old per event — the windowed delta between two reads.
func (c Counts) Sub(old Counts) Counts {
	var d Counts
	for i := range c {
		d[i] = c[i] - old[i]
	}
	return d
}

// Reading is one measurement: scaled counts plus the scheduling times
// that produced the scaling.
type Reading struct {
	Counts Counts
	// TimeEnabledNS and TimeRunningNS are the event-set scheduling times:
	// enabled is how long the set was armed, running how long it actually
	// occupied hardware counters. Running < enabled means the kernel
	// multiplexed the set and the counts were extrapolated.
	TimeEnabledNS uint64
	TimeRunningNS uint64
	// Multiplexed reports running < enabled for at least one event.
	Multiplexed bool
}

// ScaleValue extrapolates a raw counter value for multiplexing: when the
// kernel time-shares hardware counters across event sets, an event only
// counts while scheduled (time_running); scaling by enabled/running
// estimates the full-window value, the same correction perf(1) applies.
// A counter that never ran reads zero.
func ScaleValue(raw, enabledNS, runningNS uint64) uint64 {
	if runningNS == 0 {
		return 0
	}
	if runningNS >= enabledNS {
		return raw
	}
	return uint64(float64(raw) * float64(enabledNS) / float64(runningNS))
}

// Derived are the paper's ratio metrics computed from a live counter
// window, using exactly the Section 3.3 definitions.
type Derived struct {
	// CPI is cycles per instruction retired (paper Table 4).
	CPI float64 `json:"cpi"`
	// CacheMPI is last-level cache misses per instruction retired, as %
	// — the live analog of the paper's L2MPI.
	CacheMPI float64 `json:"cache_mpi_pct"`
	// CacheMissRatio is misses per cache reference, as %.
	CacheMissRatio float64 `json:"cache_miss_ratio_pct"`
	// BranchFreq is branches retired per instruction retired, as %
	// (paper Table 5).
	BranchFreq float64 `json:"branch_freq_pct"`
	// BrMPR is mispredicted branches per branch retired, as % (paper
	// Table 6).
	BrMPR float64 `json:"br_mpr_pct"`
}

// Derive computes the paper's metrics from one counter window.
func Derive(c Counts) Derived {
	var d Derived
	if instr := float64(c.Get(Instructions)); instr > 0 {
		d.CPI = float64(c.Get(Cycles)) / instr
		d.CacheMPI = 100 * float64(c.Get(CacheMisses)) / instr
		d.BranchFreq = 100 * float64(c.Get(Branches)) / instr
	}
	if refs := float64(c.Get(CacheRefs)); refs > 0 {
		d.CacheMissRatio = 100 * float64(c.Get(CacheMisses)) / refs
	}
	if br := float64(c.Get(Branches)); br > 0 {
		d.BrMPR = 100 * float64(c.Get(BranchMisses)) / br
	}
	return d
}

// EventsMap renders a Counts as an event-name-keyed map — the JSON shape
// the gateway's /stats counters section serves.
func (c Counts) EventsMap() map[string]uint64 {
	out := make(map[string]uint64, NumEvents)
	for e := Event(0); e < NumEvents; e++ {
		out[e.String()] = c[e]
	}
	return out
}
