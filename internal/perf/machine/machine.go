package machine

import (
	"fmt"

	"repro/internal/perf/branch"
	"repro/internal/perf/bus"
	"repro/internal/perf/cache"
	"repro/internal/perf/counters"
	"repro/internal/perf/cpu"
	"repro/internal/perf/tlb"
)

// bus transaction kinds re-exported for DMA use without importing bus in
// every caller.
const (
	busMemRead  = bus.MemRead
	busMemWrite = bus.MemWrite
)

// Options toggles model mechanisms for the ablations aonsim -exp ablate
// runs (DESIGN.md section 5). The zero value is the faithful model.
type Options struct {
	// PrivateL2 splits the dual-core Pentium M's shared L2 into two
	// private halves (ablation; 2CPm loopback moves by about 1 %).
	PrivateL2 bool
	// PrivatePredictors gives each SMT thread its own branch predictor
	// (ablation; SV BrMPR on 2LPx moves by about 0.01 points: the
	// shared predictor adds no inflation to remove).
	PrivatePredictors bool
	// FreeCoherence makes cross-package and cross-core dirty transfers
	// latency-free and bus-free (ablation: lifts the collapsed 2PPx
	// loopback above 1LPx's).
	FreeCoherence bool
	// NoPrefetch disables the Pentium M stream prefetchers (ablation;
	// FR on 1CPm loses 8 % of its throughput, its BTPI about 0.01
	// points).
	NoPrefetch bool
}

// Machine is one fully wired system under test.
type Machine struct {
	Config ConfigID
	Spec   PlatformSpec
	Topo   Topology
	Opts   Options

	Bus      *bus.Bus
	Packages []*Package
	LCPUs    []*cpu.LCPU

	// converted latencies, in core cycles
	dramLat         float64
	c2cLat          float64
	interventionLat float64

	windowStart []float64 // per-LCPU clock at last ResetWindow
	busyStart   []float64

	segSeq uint64 // TCP segments the run's network stack has handled
}

// Package is one processor package (socket): an L2 shared by its cores.
type Package struct {
	Index int
	L2    *cache.Cache
	Cores []*CoreUnit
	pf    *prefetcher
}

// CoreUnit is one physical core with its private L1D and a reference to
// the L2 it reads through (shared with sibling cores in the faithful
// Pentium M model; private in the PrivateL2 ablation).
type CoreUnit struct {
	Core *cpu.Core
	L1   *cache.Cache
	L2   *cache.Cache
	Pkg  *Package
}

// New builds a machine for one of the five configurations.
func New(id ConfigID, opts Options) *Machine {
	spec := id.Platform()
	topo := id.Topology()
	m := &Machine{
		Config:          id,
		Spec:            spec,
		Topo:            topo,
		Opts:            opts,
		dramLat:         spec.DRAMLatencyNs * 1e-9 * spec.ClockHz,
		c2cLat:          spec.C2CLatencyNs * 1e-9 * spec.ClockHz,
		interventionLat: spec.InterventionNs * 1e-9 * spec.ClockHz,
	}
	m.Bus = bus.New(bus.Config{
		DataTxnCycles: uint64(spec.BusDataNs * 1e-9 * spec.ClockHz),
		AddrTxnCycles: uint64(spec.BusAddrNs * 1e-9 * spec.ClockHz),
	})

	lcpuID := 0
	for p := 0; p < topo.Packages; p++ {
		pkg := &Package{Index: p}
		l2cfg := spec.L2
		if opts.PrivateL2 && topo.CoresPerPkg > 1 {
			// Ablation: split the shared L2 into per-core halves. Each
			// core still sees its half through the package structure, so
			// we model it as two packages on the die sharing the FSB.
			l2cfg.Size /= topo.CoresPerPkg
		}
		if !opts.PrivateL2 || topo.CoresPerPkg == 1 {
			pkg.L2 = cache.New(l2cfg)
		}
		if spec.StreamPrefetch && !opts.NoPrefetch {
			pkg.pf = newPrefetcher()
		}
		for c := 0; c < topo.CoresPerPkg; c++ {
			pred := branch.New(spec.Predictor)
			core := cpu.NewCore(spec.Core, pred, spec.Profile, topo.ThreadsPerCore)
			cu := &CoreUnit{Core: core, L1: cache.New(spec.L1D), Pkg: pkg}
			if pkg.L2 != nil {
				cu.L2 = pkg.L2
			} else {
				cu.L2 = cache.New(l2cfg) // private-L2 ablation
			}
			for t, lc := range core.LCPUs {
				lc.ID = lcpuID
				lcpuID++
				lc.Mem = &memPath{
					m:    m,
					cu:   cu,
					dtlb: tlb.New(spec.DTLB),
				}
				if opts.PrivatePredictors && topo.ThreadsPerCore > 1 && t > 0 {
					// Ablation: the second SMT thread predicts through
					// its own tables instead of the core's shared ones.
					lc.PredOverride = branch.New(spec.Predictor)
				}
				m.LCPUs = append(m.LCPUs, lc)
			}
			pkg.Cores = append(pkg.Cores, cu)
		}
		m.Packages = append(m.Packages, pkg)
	}
	m.windowStart = make([]float64, len(m.LCPUs))
	m.busyStart = make([]float64, len(m.LCPUs))
	return m
}

// String identifies the machine in reports.
func (m *Machine) String() string {
	return fmt.Sprintf("%s (%s: %d pkg x %d core x %d thread)",
		m.Config, m.Spec.Name, m.Topo.Packages, m.Topo.CoresPerPkg, m.Topo.ThreadsPerCore)
}

// ResetWindow starts a measurement window: zeroes every logical CPU's
// counters and notes clock positions so Clockticks can be derived at
// CloseWindow. Cache and predictor contents are preserved (hardware
// counter windows do not flush arrays).
func (m *Machine) ResetWindow() {
	for i, lc := range m.LCPUs {
		lc.Counters.Reset()
		m.windowStart[i] = lc.NowF()
		m.busyStart[i] = lc.Busy()
	}
	m.Bus.ResetStats()
	for _, pkg := range m.Packages {
		for _, cu := range pkg.Cores {
			cu.L1.ResetStats()
			cu.L2.ResetStats() // idempotent when shared between cores
		}
	}
}

// CloseWindow ends a measurement window at global cycle end: every logical
// CPU is synced to that time (idle cycles tick like VTune's system-wide
// clocktick sampling) and the Clockticks / BusyCycles counters are set.
func (m *Machine) CloseWindow(end float64) {
	for i, lc := range m.LCPUs {
		lc.SyncTo(end)
		lc.Counters.Add(counters.Clockticks, uint64(lc.NowF()-m.windowStart[i]))
		lc.Counters.Add(counters.BusyCycles, uint64(lc.Busy()-m.busyStart[i]))
	}
}

// SystemCounters merges all logical CPUs' counters, the system-wide view
// the paper's VTune sampling reports.
func (m *Machine) SystemCounters() counters.Set {
	var s counters.Set
	for _, lc := range m.LCPUs {
		s.Merge(lc.Counters)
	}
	return s
}

// MaxNow returns the most advanced logical CPU clock, the machine's notion
// of current time.
func (m *Machine) MaxNow() float64 {
	var max float64
	for _, lc := range m.LCPUs {
		if lc.NowF() > max {
			max = lc.NowF()
		}
	}
	return max
}

// DMAWrite models a NIC writing n bytes at addr into memory: every cache
// holding those lines is invalidated (the CPU will re-read them from DRAM)
// and the bus is occupied by the transfer. DMA transactions are not
// attributed to any logical CPU's bus-transaction counter — they are not
// CPU-initiated — but their occupancy delays CPU bus requests.
func (m *Machine) DMAWrite(now float64, addr uint64, n int) {
	line := uint64(m.Spec.L2.LineSize)
	start := addr &^ (line - 1)
	end := addr + uint64(n)
	for a := start; a < end; a += line {
		for _, pkg := range m.Packages {
			for _, cu := range pkg.Cores {
				cu.L1.Invalidate(a)
				cu.L2.Invalidate(a)
			}
		}
		m.Bus.Transact(uint64(now), busMemWrite)
	}
}

// DMARead models a NIC reading n bytes at addr out of memory (transmit
// path): bus occupancy only; caches keep their copies.
func (m *Machine) DMARead(now float64, addr uint64, n int) {
	line := uint64(m.Spec.L2.LineSize)
	count := (uint64(n) + line - 1) / line
	for i := uint64(0); i < count; i++ {
		m.Bus.Transact(uint64(now), busMemRead)
	}
}

// NextSegment advances the run's TCP segment sequence and returns it, 1
// for the first segment. The network stack's header kernels take it from
// here, so their periodic branches depend on this run's segments alone.
func (m *Machine) NextSegment() uint64 {
	m.segSeq++
	return m.segSeq
}

// Seconds converts cycles to wall-clock seconds on this machine.
func (m *Machine) Seconds(cycles float64) float64 {
	return cycles / m.Spec.ClockHz
}

// Cycles converts wall-clock seconds to cycles on this machine.
func (m *Machine) Cycles(seconds float64) float64 {
	return seconds * m.Spec.ClockHz
}
