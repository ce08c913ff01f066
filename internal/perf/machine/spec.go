// Package machine assembles the microarchitectural components — cores,
// caches, TLBs, branch predictors, front-side bus — into the five system
// configurations the paper evaluates (Table 2), parameterized by the two
// platform specifications of Table 1.
package machine

import (
	"fmt"

	"repro/internal/perf/branch"
	"repro/internal/perf/cache"
	"repro/internal/perf/codegen"
	"repro/internal/perf/cpu"
	"repro/internal/perf/tlb"
)

// PlatformSpec captures one platform row of the paper's Table 1 plus the
// microarchitectural parameters the simulator needs. Latency-style fields
// are expressed in nanoseconds so the same numbers apply across core
// clocks; the machine converts them to cycles at build time.
type PlatformSpec struct {
	Name     string
	ClockHz  float64
	FSBHz    float64
	DRAMSize uint64 // informational (Table 1)

	L1D  cache.Config
	L2   cache.Config
	DTLB tlb.Config

	Core      cpu.Config
	Predictor branch.Config
	Profile   codegen.Profile

	// DRAMLatencyNs is the memory access latency beyond L2 (row access +
	// FSB address phase), excluding bus queueing which the bus model adds.
	DRAMLatencyNs float64
	// C2CLatencyNs is the latency of a dirty cache-to-cache transfer
	// between processor packages over the FSB.
	C2CLatencyNs float64
	// InterventionNs is the latency of a dirty transfer between sibling
	// cores inside one package (through the shared L2 interface).
	InterventionNs float64
	// BusDataNs / BusAddrNs are the FSB occupancy of a data-phase and an
	// address-only transaction respectively.
	BusDataNs float64
	BusAddrNs float64

	// StreamPrefetch enables the L2 stream prefetchers (the Pentium M
	// "Smart Memory Access" technology the paper credits for the
	// platform's elevated bus-transaction rates, Section 5.4).
	StreamPrefetch bool
	// WritebackOnIntervention models the dual-core Pentium M pushing a
	// dirty line to memory over the FSB when a sibling core pulls it,
	// the source of the 2CPm bus traffic in the paper's Table 3.
	WritebackOnIntervention bool

	OSVersion string // informational (Table 1)
	Compiler  string // informational (Table 1)
}

// PentiumM returns the dual-core Pentium M platform specification
// (Table 1, left column). The pipeline numbers model the Banias/Dothan
// microarchitecture line the paper describes: wide dynamic execution,
// a 12-stage pipeline, an advanced hybrid branch predictor, and the Smart
// Memory Access prefetchers.
func pentiumM() PlatformSpec {
	return PlatformSpec{
		Name:     "Pentium M",
		ClockHz:  1.83e9,
		FSBHz:    667e6,
		DRAMSize: 2 << 30,
		L1D: cache.Config{
			Name: "L1D", Size: 32 << 10, LineSize: 64, Assoc: 8, Latency: 3,
		},
		L2: cache.Config{
			Name: "L2", Size: 2 << 20, LineSize: 64, Assoc: 8, Latency: 14,
		},
		DTLB: tlb.Config{Entries: 128, PageBits: 12, WalkCost: 25},
		Core: cpu.Config{
			Name:    "pentium-m-core",
			ClockHz: 1.83e9,
			// Effective sustainable IPC ceiling for integer/string code,
			// folding in dependency-chain limits; calibrated against the
			// paper's SV CPI of ~1.0 on 1CPm (Table 4).
			IssueWidth:        1.05,
			MispredictPenalty: 12,
			MemOverlap:        0.70,
			SMTOverhead:       1.0, // no Hyperthreading on this platform
		},
		Predictor: branch.Config{
			Name: "pm-hybrid", PatternBits: 15, HistoryBits: 14, Chooser: true,
		},
		Profile:                 codegen.PentiumM,
		DRAMLatencyNs:           110,
		C2CLatencyNs:            110,
		InterventionNs:          28,
		BusDataNs:               12,
		BusAddrNs:               4,
		StreamPrefetch:          true,
		WritebackOnIntervention: true,
		OSVersion:               "RHAS4 2.6 Kernel",
		Compiler:                "gcc 3.4.5 -O3",
	}
}

// Xeon returns the Netburst Xeon platform specification (Table 1, right
// column): higher clock, deeper pipeline with a large misprediction
// penalty, smaller caches, a weaker predictor, and Hyperthreading.
func xeon() PlatformSpec {
	return PlatformSpec{
		Name:     "Xeon",
		ClockHz:  3.16e9,
		FSBHz:    667e6,
		DRAMSize: 2 << 30,
		L1D: cache.Config{
			Name: "L1D", Size: 16 << 10, LineSize: 64, Assoc: 8, Latency: 4,
		},
		L2: cache.Config{
			Name: "L2", Size: 1 << 20, LineSize: 64, Assoc: 8, Latency: 22,
		},
		DTLB: tlb.Config{Entries: 64, PageBits: 12, WalkCost: 30},
		Core: cpu.Config{
			Name:    "netburst-core",
			ClockHz: 3.16e9,
			// Netburst sustains a lower IPC on branchy integer code; the
			// value is calibrated against the paper's SV CPI of ~1.9 on
			// 1LPx (Table 4).
			IssueWidth:        0.55,
			MispredictPenalty: 30,
			MemOverlap:        0.40,
			SMTOverhead:       1.15,
			SMTStatic:         1.13,
		},
		Predictor: branch.Config{
			Name: "netburst-gshare", PatternBits: 11, HistoryBits: 6, Chooser: false,
		},
		Profile:                 codegen.Netburst,
		DRAMLatencyNs:           105,
		C2CLatencyNs:            110,
		InterventionNs:          30,
		BusDataNs:               12,
		BusAddrNs:               4,
		StreamPrefetch:          false,
		WritebackOnIntervention: false,
		OSVersion:               "RHAS4 2.6 Kernel",
		Compiler:                "gcc 3.4.5 -O3",
	}
}

// ConfigID names one of the five systems under test (Table 2).
type ConfigID string

const (
	// OneCPm is the Pentium M with a single core enabled (maxcpus=1).
	OneCPm ConfigID = "1CPm"
	// TwoCPm is the Pentium M with both cores enabled.
	TwoCPm ConfigID = "2CPm"
	// OneLPx is one Xeon with Hyperthreading disabled: one logical CPU.
	OneLPx ConfigID = "1LPx"
	// TwoLPx is one Xeon with Hyperthreading enabled: two logical CPUs on
	// one physical processor.
	TwoLPx ConfigID = "2LPx"
	// TwoPPx is two physical Xeons with Hyperthreading disabled.
	TwoPPx ConfigID = "2PPx"
	// FourCPm is an extension beyond the paper's grid: a four-core
	// Pentium M sharing one L2, for the "extending this study to
	// multicore" future work (Section 6).
	FourCPm ConfigID = "4CPm"
)

// AllConfigs lists the systems under test in the paper's reporting order;
// the evaluation grid covers exactly these.
var AllConfigs = []ConfigID{OneCPm, TwoCPm, OneLPx, TwoLPx, TwoPPx}

// ExtendedConfigs are configurations implemented beyond the paper's grid.
var ExtendedConfigs = []ConfigID{FourCPm}

// Explanation returns the paper's Table 2 description for a configuration.
func (id ConfigID) Explanation() string {
	switch id {
	case OneCPm:
		return "Pentium M processor booted with SMP Linux kernel using only one of two cores with maxcpus=1 bootloader flag"
	case TwoCPm:
		return "Pentium M processor booted with SMP Linux kernel using both the cores with maxcpus=2"
	case OneLPx:
		return "Xeon processor with Hyperthreading disabled from BIOS and booted with SMP Linux kernel using a single CPU with maxcpus=1"
	case TwoLPx:
		return "Xeon processor with Hyperthreading enabled from BIOS and booted with SMP Linux kernel using two logical CPUs with maxcpus=2"
	case TwoPPx:
		return "Xeon processors with Hyperthreading disabled from BIOS and booted with SMP Linux kernel using two physical CPUs with maxcpus=2"
	case FourCPm:
		return "Extension: hypothetical four-core Pentium M sharing one L2, for the paper's multicore future work"
	}
	return "unknown configuration"
}

// Platform returns the platform specification a configuration runs on.
func (id ConfigID) Platform() PlatformSpec {
	switch id {
	case OneCPm, TwoCPm, FourCPm:
		return pentiumM()
	case OneLPx, TwoLPx, TwoPPx:
		return xeon()
	}
	panic(fmt.Sprintf("machine: unknown config %q", id))
}

// Topology describes how many packages, cores and hardware threads a
// configuration exposes.
type Topology struct {
	Packages       int
	CoresPerPkg    int
	ThreadsPerCore int
}

// LogicalCPUs returns the total number of schedulable logical CPUs.
func (t Topology) LogicalCPUs() int {
	return t.Packages * t.CoresPerPkg * t.ThreadsPerCore
}

// Topology returns the hardware layout of a configuration.
func (id ConfigID) Topology() Topology {
	switch id {
	case OneCPm:
		return Topology{Packages: 1, CoresPerPkg: 1, ThreadsPerCore: 1}
	case TwoCPm:
		return Topology{Packages: 1, CoresPerPkg: 2, ThreadsPerCore: 1}
	case OneLPx:
		return Topology{Packages: 1, CoresPerPkg: 1, ThreadsPerCore: 1}
	case TwoLPx:
		return Topology{Packages: 1, CoresPerPkg: 1, ThreadsPerCore: 2}
	case TwoPPx:
		return Topology{Packages: 2, CoresPerPkg: 1, ThreadsPerCore: 1}
	case FourCPm:
		return Topology{Packages: 1, CoresPerPkg: 4, ThreadsPerCore: 1}
	}
	panic(fmt.Sprintf("machine: unknown config %q", id))
}

// SpecsTable renders the paper's Table 1 from the two platform specs; the
// harness prints it for the Table 1 experiment.
func SpecsTable() string {
	pm, xe := pentiumM(), xeon()
	rows := [][3]string{
		{"Attributes", pm.Name, xe.Name},
		{"Number of CPUs", "1 core and 2 cores", "1 CPU and 2 CPUs"},
		{"Hyperthreading", "No", "Yes"},
		{"CPU Speed", fmt.Sprintf("%.2fGHz", pm.ClockHz/1e9), fmt.Sprintf("%.2fGHz", xe.ClockHz/1e9)},
		{"L1 D Cache", fmt.Sprintf("%dKB", pm.L1D.Size>>10), fmt.Sprintf("%dKB", xe.L1D.Size>>10)},
		{"L2 Cache", fmt.Sprintf("%dMB", pm.L2.Size>>20), fmt.Sprintf("%dMB", xe.L2.Size>>20)},
		{"Frontside Bus", fmt.Sprintf("%.0fMHz", pm.FSBHz/1e6), fmt.Sprintf("%.0fMHz", xe.FSBHz/1e6)},
		{"DRAM Size", fmt.Sprintf("%dGB", pm.DRAMSize>>30), fmt.Sprintf("%dGB", xe.DRAMSize>>30)},
		{"OS Version", pm.OSVersion, xe.OSVersion},
		{"Compiler", pm.Compiler, xe.Compiler},
	}
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("%-16s | %-22s | %-22s\n", r[0], r[1], r[2])
	}
	return out
}
