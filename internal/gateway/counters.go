package gateway

import (
	"fmt"
	"os"
	"sync"
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

// CPUCounters is one logical CPU's derived counter window: the per-CPU
// event group read as a delta — the paper's per-processor view. In the
// fallback mode the derived block is the model prediction and
// DerivedSource says so — the shape stays identical so dashboards and
// the timeline never branch on mode.
type CPUCounters struct {
	CPU           int             `json:"cpu"`
	Derived       hwcount.Derived `json:"derived"`
	DerivedSource string          `json:"derived_source"` // "hw" or "model"
	Multiplexed   bool            `json:"multiplexed,omitempty"`
}

// CountersSnapshot is the /stats "counters" section: the live
// measurement layer's windowed view. In "hw" mode the events and derived
// metrics come from real perf counters (deltas since the previous
// snapshot — scrape /stats periodically and each response is one
// measurement window). In "runtime-only" mode perf events were
// unavailable; the runtime section still carries real observations and
// the derived block falls back to the simulator's calibrated model
// prediction so dashboards keep a reference value (DerivedSource says
// which you got). CPUs is the per-CPU skew view — one entry per logical
// CPU, each backed by its own CPU-scoped event group.
type CountersSnapshot struct {
	Mode          string            `json:"mode"` // "hw" or "runtime-only"
	Notice        string            `json:"notice,omitempty"`
	WindowSec     float64           `json:"window_sec"`
	Multiplexed   bool              `json:"multiplexed,omitempty"`
	Events        map[string]uint64 `json:"events,omitempty"` // windowed scaled deltas
	Derived       hwcount.Derived   `json:"derived"`
	DerivedSource string            `json:"derived_source"` // "hw" or "model"
	CPUs          []CPUCounters     `json:"cpus,omitempty"`
	Runtime       runstats.Snapshot `json:"runtime"`
}

// counterSampler owns the gateway's measurement layer: the process-wide
// perf event set and one event group per logical CPU when the host
// grants them, and the runtime sampler always. Every group is opened
// here and closed by close. Windowing state lives in counterViews so
// independent consumers (the /stats scrape and the 100ms timeline) each
// get honest windows instead of stealing each other's deltas.
type counterSampler struct {
	uc     workload.UseCase
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
	cs := &counterSampler{uc: uc}
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

// counterView is one consumer's windowing state over the shared sampler:
// previous process-wide counts plus previous per-CPU counts, so each
// consumer's deltas cover exactly the span since *its* last read.
type counterView struct {
	cs *counterSampler

	mu       sync.Mutex
	prevAt   time.Time
	prev     hwcount.Counts
	prevCPUs []hwcount.Counts
}

func newCounterView(cs *counterSampler) *counterView {
	return &counterView{cs: cs, prevAt: time.Now(), prevCPUs: make([]hwcount.Counts, len(cs.cpus))}
}

// window closes one measurement window: the process-wide delta-derived
// metrics plus the per-CPU skew, each labeled with its source.
func (v *counterView) window() (windowSec float64, derived hwcount.Derived,
	source string, events map[string]uint64, multiplexed bool, cpus []CPUCounters) {
	cs := v.cs
	v.mu.Lock()
	defer v.mu.Unlock()
	now := time.Now()
	windowSec = now.Sub(v.prevAt).Seconds()
	v.prevAt = now

	if cs.grp == nil {
		derived, source = modelDerived(cs.uc), "model"
		cpus = v.cpuWindows(derived, false)
		return
	}
	r, err := cs.grp.Read()
	if err != nil {
		derived, source = modelDerived(cs.uc), "model"
		cpus = v.cpuWindows(derived, false)
		return
	}
	delta := r.Counts.Sub(v.prev)
	v.prev = r.Counts
	multiplexed = r.Multiplexed
	events = delta.EventsMap()
	// An idle window (no instructions retired since the last read)
	// derives from the cumulative totals instead, so ratios never read
	// zero just because the reader raced the load.
	if delta.Get(hwcount.Instructions) == 0 {
		delta = r.Counts
	}
	derived, source = hwcount.Derive(delta), "hw"
	cpus = v.cpuWindows(modelDerived(cs.uc), true)
	return
}

// cpuWindows lists one entry per logical CPU. With read set, each CPU's
// group is read as a delta against this view's previous read. A CPU
// without a group, whose read fails or whose group has counted nothing
// yet (only threads started before the open ran there), and every CPU
// without read, publishes the model prediction instead.
func (v *counterView) cpuWindows(model hwcount.Derived, read bool) []CPUCounters {
	out := make([]CPUCounters, len(v.cs.cpus))
	for n, c := range v.cs.cpus {
		out[n] = CPUCounters{CPU: c.id, Derived: model, DerivedSource: "model"}
		if !read || c.g == nil {
			continue
		}
		r, err := c.g.Read()
		if err != nil || r.Counts.Get(hwcount.Instructions) == 0 {
			continue
		}
		delta := r.Counts.Sub(v.prevCPUs[n])
		v.prevCPUs[n] = r.Counts
		if delta.Get(hwcount.Instructions) == 0 {
			delta = r.Counts
		}
		out[n].Derived, out[n].DerivedSource = hwcount.Derive(delta), "hw"
		out[n].Multiplexed = r.Multiplexed
	}
	return out
}

// snapshot takes one full measurement window shaped for /stats: counter
// deltas since this view's last call plus a fresh runtime reading.
func (v *counterView) snapshot() *CountersSnapshot {
	out := &CountersSnapshot{Runtime: runstats.Read()}
	mode, notice := v.cs.mode()
	out.Mode, out.Notice = mode, notice
	out.WindowSec, out.Derived, out.DerivedSource, out.Events, out.Multiplexed, out.CPUs = v.window()
	if out.DerivedSource == "model" {
		// A read failure on an opened group degrades this window only.
		out.Mode = "runtime-only"
		if out.Notice == "" {
			out.Notice = "perf read failed; runtime-metrics-only window"
		}
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
