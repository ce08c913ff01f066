// Package harness runs the paper's experiments on the simulated machines
// and renders paper-vs-measured comparisons for every table and figure in
// the evaluation (Figure 2 through Table 6).
package harness

import (
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// paperNetperf holds the published Figure 2 / Table 3 values, indexed by
// configuration in the paper's order 1CPm, 2CPm, 1LPx, 2LPx, 2PPx.
type paperNetperf struct {
	ThroughputMbps map[machine.ConfigID]float64
	CPI            map[machine.ConfigID]float64
	L2MPI          map[machine.ConfigID]float64
	BTPI           map[machine.ConfigID]float64
	BranchFreq     map[machine.ConfigID]float64
	BrMPR          map[machine.ConfigID]float64
}

func cfgMap(v1CPm, v2CPm, v1LPx, v2LPx, v2PPx float64) map[machine.ConfigID]float64 {
	return map[machine.ConfigID]float64{
		machine.OneCPm: v1CPm, machine.TwoCPm: v2CPm,
		machine.OneLPx: v1LPx, machine.TwoLPx: v2LPx, machine.TwoPPx: v2PPx,
	}
}

// paperNetperfLoopback is the published loopback-mode data (Figure 2 bars
// and the Table 3 upper block).
var paperNetperfLoopback = paperNetperf{
	ThroughputMbps: cfgMap(9550, 6252, 8897, 8496, 2823),
	CPI:            cfgMap(3.03, 6.05, 6.38, 7.70, 22.13),
	L2MPI:          cfgMap(0.00, 0.35, 0.00, 23.32, 24.64),
	BTPI:           cfgMap(0.00, 9.84, 0.19, 0.10, 10.48),
	BranchFreq:     cfgMap(36, 34, 18, 19, 18),
	BrMPR:          cfgMap(0.96, 0.70, 3.23, 3.04, 2.30),
}

// paperNetperfEndToEnd is the published end-to-end-mode data (Figure 2
// bars and the Table 3 lower block). Throughput saturates the gigabit
// wire on every configuration.
var paperNetperfEndToEnd = paperNetperf{
	ThroughputMbps: cfgMap(940, 920, 936, 940, 936),
	CPI:            cfgMap(3.46, 6.27, 8.10, 18.52, 11.53),
	L2MPI:          cfgMap(0.05, 0.08, 0.33, 2.89, 2.71),
	BTPI:           cfgMap(2.13, 5.99, 0.53, 0.95, 0.57),
	BranchFreq:     cfgMap(33, 34, 18, 19, 17),
	BrMPR:          cfgMap(0.85, 0.83, 1.68, 3.96, 1.87),
}

// PaperCPI is Table 4: CPIs for the AON use cases on all configurations.
var PaperCPI = map[workload.UseCase]map[machine.ConfigID]float64{
	workload.SV:  cfgMap(1.02, 1.05, 1.91, 3.50, 1.96),
	workload.CBR: cfgMap(1.12, 1.22, 2.26, 4.34, 2.32),
	workload.FR:  cfgMap(2.24, 2.96, 5.71, 7.65, 5.92),
}

// ScalingPair names one of Figure 3's dual-processing transitions.
type ScalingPair struct {
	Name     string
	From, To machine.ConfigID
}

// ScalingPairs are Figure 3's three transitions.
var ScalingPairs = []ScalingPair{
	{"1CPm->2CPm", machine.OneCPm, machine.TwoCPm},
	{"1LPx->2LPx", machine.OneLPx, machine.TwoLPx},
	{"1LPx->2PPx", machine.OneLPx, machine.TwoPPx},
}

// paperScaling is Figure 3: dual-processor throughput scaling per use case
// and transition.
var paperScaling = map[string]map[workload.UseCase]float64{
	"1CPm->2CPm": {workload.FR: 1.51, workload.CBR: 1.84, workload.SV: 1.91},
	"1LPx->2LPx": {workload.FR: 1.49, workload.CBR: 1.32, workload.SV: 1.12},
	"1LPx->2PPx": {workload.FR: 1.97, workload.CBR: 1.98, workload.SV: 1.97},
}

// PaperBranchFreq is Table 5: branch instructions retired per instruction
// retired (%).
var PaperBranchFreq = map[workload.UseCase]map[machine.ConfigID]float64{
	workload.SV:  cfgMap(27, 28, 15, 15, 15),
	workload.CBR: cfgMap(28, 27, 15, 15, 15),
	workload.FR:  cfgMap(35, 36, 19, 19, 19),
}

// PaperBrMPR is Table 6: branch misprediction ratios (%).
var PaperBrMPR = map[workload.UseCase]map[machine.ConfigID]float64{
	workload.SV:  cfgMap(1.98, 1.97, 3.62, 4.61, 3.65),
	workload.CBR: cfgMap(1.07, 1.04, 2.01, 2.91, 1.96),
	workload.FR:  cfgMap(1.13, 1.21, 2.65, 3.96, 2.71),
}

// Figures 4 and 5 are published as plots without numeric labels; the
// reproduction contract for them is the set of shape relations the paper's
// prose asserts. See ShapeChecksFigure4 and ShapeChecksFigure5 in
// report.go.
