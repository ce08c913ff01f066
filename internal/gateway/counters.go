package gateway

import (
	"fmt"
	"os"
	"time"

	"repro/internal/hwcount"
	"repro/internal/runstats"
	"repro/internal/workload"
)

// ForceRuntimeOnlyEnv, when set in the environment, makes the
// measurement layer skip perf_event_open entirely and run in the
// runtime-only fallback even on perf-capable hosts — the deterministic
// lever CI uses to exercise both modes on one machine.
const ForceRuntimeOnlyEnv = "AON_NO_PERF"

// CPUCounters is one logical CPU's counter view: the per-CPU event group
// read cumulatively — the paper's per-processor view. In the fallback
// mode the derived block is the model prediction and DerivedSource says
// so — the shape stays identical so dashboards and readers never branch
// on mode.
type CPUCounters struct {
	CPU           int               `json:"cpu"`
	Events        map[string]uint64 `json:"events,omitempty"` // cumulative scaled counts (hw only)
	Derived       hwcount.Derived   `json:"derived"`
	DerivedSource string            `json:"derived_source"` // "hw" or "model"
	Multiplexed   bool              `json:"multiplexed,omitempty"`
}

// CountersSnapshot is the /stats "counters" section: a pure read of the
// live measurement layer. In "hw" mode Events are the scaled counts
// since the groups opened and Derived is taken from those totals;
// WindowSec is the span they cover. Readers cut their own windows by
// differencing successive reads (session.Windower), so any number of
// them can scrape without taking each other's deltas. In "runtime-only"
// mode perf events were unavailable; the runtime section still carries
// real observations and the derived block falls back to the simulator's
// calibrated model prediction so dashboards keep a reference value
// (DerivedSource says which you got). CPUs is the per-CPU skew view —
// one entry per logical CPU, each backed by its own CPU-scoped event
// group.
type CountersSnapshot struct {
	Mode          string            `json:"mode"` // "hw" or "runtime-only"
	Notice        string            `json:"notice,omitempty"`
	WindowSec     float64           `json:"window_sec"`
	Multiplexed   bool              `json:"multiplexed,omitempty"`
	Events        map[string]uint64 `json:"events,omitempty"` // cumulative scaled counts
	Derived       hwcount.Derived   `json:"derived"`
	DerivedSource string            `json:"derived_source"` // "hw" or "model"
	CPUs          []CPUCounters     `json:"cpus,omitempty"`
	Runtime       runstats.Snapshot `json:"runtime"`
}

// counterSampler owns the gateway's measurement layer: the process-wide
// perf event set and one event group per logical CPU when the host
// grants them, and the runtime sampler always. Every group is opened
// here and closed by close. It keeps no per-reader state: every read is
// cumulative.
type counterSampler struct {
	uc     workload.UseCase
	opened time.Time
	grp    *hwcount.Group // nil: runtime-only mode
	cpus   []cpuGroup     // one per CPU of the process's affinity set
	notice string
}

// cpuGroup is one logical CPU's slot: its id and, when the host grants
// it, the CPU-scoped event group (nil: model-backed).
type cpuGroup struct {
	id int
	g  *hwcount.Group
}

// newCounterSampler opens the perf event sets; on failure (no PMU,
// paranoid level, seccomp, non-Linux) it records the reason and the
// sampler serves runtime-only snapshots — degradation, never an error.
func newCounterSampler(uc workload.UseCase) *counterSampler {
	cs := &counterSampler{uc: uc, opened: time.Now()}
	for _, id := range hwcount.CPUs() {
		cs.cpus = append(cs.cpus, cpuGroup{id: id})
	}
	if os.Getenv(ForceRuntimeOnlyEnv) != "" {
		cs.notice = fmt.Sprintf("perf events disabled by %s; runtime-metrics-only mode", ForceRuntimeOnlyEnv)
		return cs
	}
	g, err := hwcount.Open()
	if err != nil {
		cs.notice = fmt.Sprintf("perf events unavailable (%v); runtime-metrics-only mode", err)
		return cs
	}
	cs.grp = g
	if g.UserOnly() {
		cs.notice = "kernel-mode cycles excluded (perf_event_paranoid); user-space counts only"
	}
	for n := range cs.cpus {
		cs.cpus[n].g, _ = hwcount.OpenCPU(cs.cpus[n].id) // a denied CPU publishes the model
	}
	return cs
}

// mode reports the sampler's operating mode and the one-line notice (if
// any) for CLI startup banners.
func (cs *counterSampler) mode() (mode, notice string) {
	if cs == nil {
		return "off", ""
	}
	if cs.grp == nil {
		return "runtime-only", cs.notice
	}
	return "hw", cs.notice
}

// close releases every event group the sampler opened.
func (cs *counterSampler) close() {
	if cs == nil {
		return
	}
	if cs.grp != nil {
		cs.grp.Close()
	}
	for _, c := range cs.cpus {
		if c.g != nil {
			c.g.Close()
		}
	}
}

// snapshot reads the measurement layer for /stats: the cumulative
// counts and their derived metrics, process-wide and per CPU, each
// labeled with its source, plus a fresh runtime reading. A CPU without a
// group, whose read fails or whose group has counted nothing yet (only
// threads started before the open ran there) publishes the model
// prediction, as does every CPU when the process-wide read fails.
func (cs *counterSampler) snapshot() *CountersSnapshot {
	out := &CountersSnapshot{WindowSec: time.Since(cs.opened).Seconds(), Runtime: runstats.Read()}
	out.Mode, out.Notice = cs.mode()
	model := modelDerived(cs.uc)
	out.Derived, out.DerivedSource = model, "model"
	hw := false
	if cs.grp != nil {
		if r, err := cs.grp.Read(); err == nil {
			hw = true
			out.Events, out.Multiplexed = r.Counts.EventsMap(), r.Multiplexed
			out.Derived, out.DerivedSource = hwcount.Derive(r.Counts), "hw"
		} else {
			// A read failure on an opened group degrades this read only.
			out.Mode = "runtime-only"
			if out.Notice == "" {
				out.Notice = "perf read failed; runtime-metrics-only window"
			}
		}
	}
	out.CPUs = make([]CPUCounters, len(cs.cpus))
	for n, c := range cs.cpus {
		out.CPUs[n] = CPUCounters{CPU: c.id, Derived: model, DerivedSource: "model"}
		if !hw || c.g == nil {
			continue
		}
		r, err := c.g.Read()
		if err != nil || r.Counts.Get(hwcount.Instructions) == 0 {
			continue
		}
		out.CPUs[n] = CPUCounters{CPU: c.id, Events: r.Counts.EventsMap(),
			Derived: hwcount.Derive(r.Counts), DerivedSource: "hw", Multiplexed: r.Multiplexed}
	}
	return out
}

// modelDerived is the runtime-only fallback's reference point: the
// simulated 2CPm machine (the dual-core Pentium M the reproduction is
// anchored to) for this use case — CPI, branch frequency and BrMPR from
// the paper's Tables 4-6, cache-MPI from the simulator's own 2CPm
// prediction (the paper publishes no per-use-case L2MPI), all labeled
// derived_source=model. The values are constants, so the gateway never
// runs the simulator; TestModelDerivedPinned recomputes them. The
// DPI/AUTH/XJ extensions take CBR's, the nearest published mix.
func modelDerived(uc workload.UseCase) hwcount.Derived {
	switch uc {
	case workload.FR:
		return hwcount.Derived{CPI: 2.96, BranchFreq: 36, BrMPR: 1.21, CacheMPI: 0.25337368965708673}
	case workload.SV:
		return hwcount.Derived{CPI: 1.05, BranchFreq: 28, BrMPR: 1.97, CacheMPI: 0.16571412473225378}
	}
	return hwcount.Derived{CPI: 1.22, BranchFreq: 27, BrMPR: 1.04, CacheMPI: 0.16770542719139078}
}
