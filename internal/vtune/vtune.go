// Package vtune reproduces the paper's measurement methodology: a
// sampling profiler that periodically snapshots every logical CPU's
// on-chip performance counters during a run (Section 3.3 uses Intel VTune
// in sampling mode "to get a global picture of processor utilization for
// both system and application level activities").
//
// The profiler rides the simulation's event queue: at every sampling
// interval it records per-CPU counter deltas, from which utilization
// and interval metrics derive.
package vtune

import (
	"repro/internal/perf/counters"
	"repro/internal/sim/sched"
)

// Sample is one sampling interval's observation for one logical CPU.
type Sample struct {
	CPU     int
	AtCycle float64
	Delta   counters.Set // events since the previous sample on this CPU
	Busy    float64      // busy cycles in the interval
}

// Profiler collects samples from a running engine.
type Profiler struct {
	E        *sched.Engine
	Interval float64 // cycles between samples

	samples  []Sample
	last     []counters.Set
	lastBusy []float64
	stopped  bool
}

// New creates a profiler sampling every interval cycles.
func New(e *sched.Engine, interval float64) *Profiler {
	return &Profiler{
		E:        e,
		Interval: interval,
		last:     make([]counters.Set, len(e.M.LCPUs)),
		lastBusy: make([]float64, len(e.M.LCPUs)),
	}
}

// Start arms the first sampling event at cycle at.
func (p *Profiler) Start(at float64) {
	for i, lc := range p.E.M.LCPUs {
		p.last[i] = lc.Counters.Snapshot()
		p.lastBusy[i] = lc.Busy()
	}
	p.E.At(at+p.Interval, p.tick)
}

// Stop ends sampling after the current interval.
func (p *Profiler) Stop() { p.stopped = true }

func (p *Profiler) tick(now float64) {
	if p.stopped {
		return
	}
	for i, lc := range p.E.M.LCPUs {
		cur := lc.Counters.Snapshot()
		busy := lc.Busy()
		p.samples = append(p.samples, Sample{
			CPU:     i,
			AtCycle: now,
			Delta:   cur.Sub(p.last[i]),
			Busy:    busy - p.lastBusy[i],
		})
		p.last[i] = cur
		p.lastBusy[i] = busy
	}
	p.E.At(now+p.Interval, p.tick)
}

// Samples returns everything collected so far.
func (p *Profiler) Samples() []Sample { return p.samples }

// Utilization is each logical CPU's mean busy fraction over all samples,
// indexed by CPU (0 for a CPU with no samples yet). A logical CPU's clock
// can lead the sampling clock by up to one scheduling step, so over a
// short run the mean can read a little above 1; it is capped at 1.
func (p *Profiler) Utilization() []float64 {
	out := make([]float64, len(p.last))
	n := make([]int, len(p.last))
	for _, s := range p.samples {
		out[s.CPU] += s.Busy / p.Interval
		n[s.CPU]++
	}
	for cpu := range out {
		if n[cpu] > 0 {
			out[cpu] = min(out[cpu]/float64(n[cpu]), 1)
		}
	}
	return out
}
