// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation section, printing paper-vs-measured comparisons and
// the qualitative shape checks, plus the ablation benches DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark runs its full experiment once per b.N iteration; the
// interesting output is the printed tables (b.N is forced to stay small by
// the experiment runtime).
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/netperf"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// Experiment sizing for the benches: large enough for steady state.
var benchNetperfOpts = harness.NetperfOpts{WarmupMs: 2, MeasureMs: 8}
var benchAONOpts = harness.AONOpts{WarmupMsgs: 150, MeasureMsgs: 700, Window: 32}

// The matrices are expensive; share them across benchmarks within one
// `go test -bench` process.
var (
	netperfOnce sync.Once
	netperfMx   harness.NetperfMatrix
	aonOnce     sync.Once
	aonMx       harness.AONMatrix
	aonErr      error
)

func netperfMatrix() harness.NetperfMatrix {
	netperfOnce.Do(func() { netperfMx = harness.RunNetperfMatrix(benchNetperfOpts) })
	return netperfMx
}

func aonMatrix(b *testing.B) harness.AONMatrix {
	aonOnce.Do(func() { aonMx, aonErr = harness.RunAONMatrix(workload.AllUseCases, machine.AllConfigs, benchAONOpts) })
	if aonErr != nil {
		b.Fatal(aonErr)
	}
	return aonMx
}

func reportChecks(b *testing.B, checks []harness.ShapeCheck) {
	b.Helper()
	failed := harness.FailedChecks(checks)
	fmt.Println(harness.FormatChecks(checks))
	b.ReportMetric(float64(len(checks)-len(failed)), "checks-ok")
	b.ReportMetric(float64(len(failed)), "checks-failed")
}

// BenchmarkFigure2NetperfThroughput regenerates Figure 2.
func BenchmarkFigure2NetperfThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx := netperfMatrix()
		if i == 0 {
			fmt.Println(harness.Figure2Table(mx).Render())
			reportChecks(b, harness.Figure2Checks(mx))
		}
	}
}

// BenchmarkTable3NetperfMetrics regenerates Table 3.
func BenchmarkTable3NetperfMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx := netperfMatrix()
		if i == 0 {
			for _, t := range harness.Table3Tables(mx) {
				fmt.Println(t.Render())
			}
			reportChecks(b, harness.Table3Checks(mx))
		}
	}
}

// BenchmarkFigure3Scaling regenerates Figure 3.
func BenchmarkFigure3Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx := aonMatrix(b)
		if i == 0 {
			fmt.Println(harness.ThroughputTable(mx).Render())
			fmt.Println(harness.Figure3Table(mx).Render())
			reportChecks(b, harness.Figure3Checks(mx))
		}
	}
}

// BenchmarkTable4CPI regenerates Table 4.
func BenchmarkTable4CPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx := aonMatrix(b)
		if i == 0 {
			fmt.Println(harness.Table4Table(mx).Render())
			reportChecks(b, harness.Table4Checks(mx))
		}
	}
}

// BenchmarkFigure4L2MPI regenerates Figure 4.
func BenchmarkFigure4L2MPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx := aonMatrix(b)
		if i == 0 {
			fmt.Println(harness.Figure4Table(mx).Render())
			reportChecks(b, harness.Figure4Checks(mx))
		}
	}
}

// BenchmarkFigure5BTPI regenerates Figure 5.
func BenchmarkFigure5BTPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx := aonMatrix(b)
		if i == 0 {
			fmt.Println(harness.Figure5Table(mx).Render())
			reportChecks(b, harness.Figure5Checks(mx))
		}
	}
}

// BenchmarkTable5BranchFreq regenerates Table 5.
func BenchmarkTable5BranchFreq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx := aonMatrix(b)
		if i == 0 {
			fmt.Println(harness.Table5Table(mx).Render())
			reportChecks(b, harness.Table5Checks(mx))
		}
	}
}

// BenchmarkTable6BrMPR regenerates Table 6.
func BenchmarkTable6BrMPR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx := aonMatrix(b)
		if i == 0 {
			fmt.Println(harness.Table6Table(mx).Render())
			reportChecks(b, harness.Table6Checks(mx))
		}
	}
}

// ---- Ablations (DESIGN.md section 5) ----

// BenchmarkAblationNoCoherence shows that free cross-cache transfers erase
// the 2PPx loopback collapse.
func BenchmarkAblationNoCoherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := harness.RunNetperf(machine.TwoPPx, netperf.Loopback, benchNetperfOpts)
		ref := harness.RunNetperf(machine.OneLPx, netperf.Loopback, benchNetperfOpts)
		opts := benchNetperfOpts
		opts.Machine.FreeCoherence = true
		abl := harness.RunNetperf(machine.TwoPPx, netperf.Loopback, opts)
		if i == 0 {
			fmt.Printf("Ablation: coherence cost removed (2PPx loopback)\n")
			fmt.Printf("  1LPx baseline:            %8.0f Mbps\n", ref.Mbps)
			fmt.Printf("  2PPx faithful:            %8.0f Mbps (collapse: %.2fx of 1LPx)\n", base.Mbps, base.Mbps/ref.Mbps)
			fmt.Printf("  2PPx free coherence:      %8.0f Mbps (%.2fx of 1LPx)\n", abl.Mbps, abl.Mbps/ref.Mbps)
			b.ReportMetric(abl.Mbps/base.Mbps, "speedup-from-ablation")
		}
	}
}

// BenchmarkAblationPrivateL2 shows that giving each Pentium M core a
// private L2 half changes the 2CPm loopback behaviour.
func BenchmarkAblationPrivateL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := harness.RunNetperf(machine.TwoCPm, netperf.Loopback, benchNetperfOpts)
		opts := benchNetperfOpts
		opts.Machine.PrivateL2 = true
		abl := harness.RunNetperf(machine.TwoCPm, netperf.Loopback, opts)
		if i == 0 {
			fmt.Printf("Ablation: private per-core L2 halves (2CPm loopback)\n")
			fmt.Printf("  shared L2 (faithful):     %8.0f Mbps  CPI=%.2f\n", base.Mbps, base.Metrics.CPI)
			fmt.Printf("  private L2 halves:        %8.0f Mbps  CPI=%.2f\n", abl.Mbps, abl.Metrics.CPI)
			b.ReportMetric(abl.Mbps/base.Mbps, "ratio")
		}
	}
}

// BenchmarkAblationPrivatePredictor shows that per-thread predictors
// remove the Hyperthreading misprediction inflation (Table 6, finding 6).
func BenchmarkAblationPrivatePredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := harness.RunAON(machine.TwoLPx, workload.SV, benchAONOpts)
		if err != nil {
			b.Fatal(err)
		}
		opts := benchAONOpts
		opts.Machine.PrivatePredictors = true
		abl, err := harness.RunAON(machine.TwoLPx, workload.SV, opts)
		if err != nil {
			b.Fatal(err)
		}
		ref, err := harness.RunAON(machine.OneLPx, workload.SV, benchAONOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("Ablation: private per-SMT-thread predictors (SV on 2LPx)\n")
			fmt.Printf("  1LPx BrMPR:               %6.2f%%\n", ref.Metrics.BrMPR)
			fmt.Printf("  2LPx shared predictor:    %6.2f%%\n", base.Metrics.BrMPR)
			fmt.Printf("  2LPx private predictors:  %6.2f%%\n", abl.Metrics.BrMPR)
			b.ReportMetric(base.Metrics.BrMPR-abl.Metrics.BrMPR, "brmpr-delta")
		}
	}
}

// BenchmarkAblationNoPrefetch shows the Pentium M stream prefetcher's
// contribution to bus traffic (Section 5.4's Smart Memory Access account).
func BenchmarkAblationNoPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := harness.RunAON(machine.OneCPm, workload.FR, benchAONOpts)
		if err != nil {
			b.Fatal(err)
		}
		opts := benchAONOpts
		opts.Machine.NoPrefetch = true
		abl, err := harness.RunAON(machine.OneCPm, workload.FR, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("Ablation: stream prefetchers disabled (FR on 1CPm)\n")
			fmt.Printf("  with prefetch (faithful): BTPI=%.2f%%  %8.0f Mbps\n", base.Metrics.BTPI, base.Mbps)
			fmt.Printf("  without prefetch:         BTPI=%.2f%%  %8.0f Mbps\n", abl.Metrics.BTPI, abl.Mbps)
			b.ReportMetric(base.Metrics.BTPI/abl.Metrics.BTPI, "btpi-ratio")
		}
	}
}

// BenchmarkAblationCodegen shows that using the Pentium M retirement
// profile on both platforms collapses the Table 5 branch-frequency gap.
func BenchmarkAblationCodegen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pm, err := harness.RunAON(machine.OneCPm, workload.SV, benchAONOpts)
		if err != nil {
			b.Fatal(err)
		}
		xe, err := harness.RunAON(machine.OneLPx, workload.SV, benchAONOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("Codegen profiles: SV branch frequency PM=%.0f%% Xeon=%.0f%% (ratio %.2f; paper: 27%% vs 15%%)\n",
				pm.Metrics.BranchFreq, xe.Metrics.BranchFreq,
				pm.Metrics.BranchFreq/xe.Metrics.BranchFreq)
			b.ReportMetric(pm.Metrics.BranchFreq/xe.Metrics.BranchFreq, "pm-to-xeon-ratio")
		}
	}
}

// ---- Micro-benchmarks of the substrate itself ----

// BenchmarkXMLParse measures the real (host) cost of parsing one AONBench
// message with instrumentation attached.
func BenchmarkXMLParse(b *testing.B) {
	msg := workload.SOAPMessage(7)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := parseForBench(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedMessage measures host time per fully simulated CBR
// message on the dual-core machine (simulator efficiency).
func BenchmarkSimulatedMessage(b *testing.B) {
	opts := harness.AONOpts{WarmupMsgs: 20, MeasureMsgs: b.N, Window: 32}
	if opts.MeasureMsgs < 50 {
		opts.MeasureMsgs = 50
	}
	b.ResetTimer()
	if _, err := harness.RunAON(machine.TwoCPm, workload.CBR, opts); err != nil {
		b.Fatal(err)
	}
}
