package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netperf"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// tableMetric selects one derived metric from a counter set for table rendering
// and shape checks.
type tableMetric struct {
	Name string
	Get  func(counters.Metrics) float64
}

// The paper's microarchitectural metrics.
var (
	metricCPI        = tableMetric{"CPI", func(m counters.Metrics) float64 { return m.CPI }}
	metricL2MPI      = tableMetric{"L2MPI (%)", func(m counters.Metrics) float64 { return m.L2MPI }}
	metricBTPI       = tableMetric{"BTPI (%)", func(m counters.Metrics) float64 { return m.BTPI }}
	metricBranchFreq = tableMetric{"Branch freq (%)", func(m counters.Metrics) float64 { return m.BranchFreq }}
	metricBrMPR      = tableMetric{"BrMPR (%)", func(m counters.Metrics) float64 { return m.BrMPR }}
)

// Table is a rendered paper-vs-measured comparison.
type Table struct {
	Title string
	Rows  []TableRow
}

// TableRow is one labelled series across the five configurations.
type TableRow struct {
	Label  string
	Values map[machine.ConfigID]float64
}

// Render formats the table with one column per configuration.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-28s", "")
	for _, id := range machine.AllConfigs {
		fmt.Fprintf(&b, "%10s", string(id))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s", r.Label)
		for _, id := range machine.AllConfigs {
			v, ok := r.Values[id]
			if !ok {
				fmt.Fprintf(&b, "%10s", "-")
				continue
			}
			fmt.Fprintf(&b, "%10.2f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ShapeCheck is one qualitative relation the paper's prose asserts;
// aonsim and the integration tests verify each against the measured
// data.
type ShapeCheck struct {
	Name string
	OK   bool
	Note string
}

// checkRel builds a ShapeCheck for a binary relation with 10% slack for
// "approximately equal" and strict inequality otherwise.
func checkGreater(name string, a, b float64) ShapeCheck {
	return ShapeCheck{Name: name, OK: a > b, Note: fmt.Sprintf("%.3f > %.3f", a, b)}
}

func checkNear(name string, a, b, tol float64) ShapeCheck {
	ratio := a / b
	ok := ratio > 1-tol && ratio < 1+tol
	return ShapeCheck{Name: name, OK: ok, Note: fmt.Sprintf("%.3f vs %.3f (ratio %.2f)", a, b, ratio)}
}

// FormatChecks renders shape-check results.
func FormatChecks(checks []ShapeCheck) string {
	var b strings.Builder
	for _, c := range checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-58s %s\n", mark, c.Name, c.Note)
	}
	return b.String()
}

// ---- Figure 2 / Table 3 ----

// Figure2Table renders netperf throughput, paper vs measured.
func Figure2Table(mx NetperfMatrix) Table {
	t := Table{Title: "Figure 2: Netperf throughput (Mbps)"}
	for _, mode := range []netperf.Mode{netperf.Loopback, netperf.EndToEnd} {
		paper := paperNetperfLoopback
		if mode == netperf.EndToEnd {
			paper = paperNetperfEndToEnd
		}
		t.Rows = append(t.Rows, TableRow{Label: mode.String() + " (paper)", Values: paper.ThroughputMbps})
		meas := map[machine.ConfigID]float64{}
		for id, r := range mx[mode] {
			meas[id] = r.Mbps
		}
		t.Rows = append(t.Rows, TableRow{Label: mode.String() + " (measured)", Values: meas})
	}
	return t
}

// Figure2Checks verifies the loopback ordering and end-to-end saturation
// the paper reports.
func Figure2Checks(mx NetperfMatrix) []ShapeCheck {
	lb := mx[netperf.Loopback]
	ee := mx[netperf.EndToEnd]
	checks := []ShapeCheck{
		checkGreater("loopback: 1CPm is the fastest single unit", lb[machine.OneCPm].Mbps, lb[machine.OneLPx].Mbps),
		checkGreater("loopback: 1CPm > 2CPm (dual-core degradation)", lb[machine.OneCPm].Mbps, lb[machine.TwoCPm].Mbps),
		checkGreater("loopback: 1LPx > 2PPx (severe dual-package degradation)", lb[machine.OneLPx].Mbps, lb[machine.TwoPPx].Mbps),
		checkGreater("loopback: 2PPx degradation exceeds 2CPm degradation",
			lb[machine.TwoCPm].Mbps/lb[machine.OneCPm].Mbps, lb[machine.TwoPPx].Mbps/lb[machine.OneLPx].Mbps),
		checkGreater("loopback: 2CPm > 2PPx", lb[machine.TwoCPm].Mbps, lb[machine.TwoPPx].Mbps),
	}
	for _, id := range machine.AllConfigs {
		checks = append(checks, checkNear(
			fmt.Sprintf("end-to-end: %s saturates the gigabit wire", id),
			ee[id].Mbps, 937, 0.05))
	}
	return checks
}

// Table3Tables renders the netperf microarchitectural metrics.
func Table3Tables(mx NetperfMatrix) []Table {
	var out []Table
	for _, mode := range []netperf.Mode{netperf.Loopback, netperf.EndToEnd} {
		paper := paperNetperfLoopback
		if mode == netperf.EndToEnd {
			paper = paperNetperfEndToEnd
		}
		t := Table{Title: fmt.Sprintf("Table 3 (%s): netperf performance metrics", mode)}
		add := func(metric tableMetric, paperVals map[machine.ConfigID]float64) {
			t.Rows = append(t.Rows, TableRow{Label: metric.Name + " (paper)", Values: paperVals})
			meas := map[machine.ConfigID]float64{}
			for id, r := range mx[mode] {
				meas[id] = metric.Get(r.Metrics)
			}
			t.Rows = append(t.Rows, TableRow{Label: metric.Name + " (measured)", Values: meas})
		}
		add(metricCPI, paper.CPI)
		add(metricL2MPI, paper.L2MPI)
		add(metricBTPI, paper.BTPI)
		add(metricBranchFreq, paper.BranchFreq)
		add(metricBrMPR, paper.BrMPR)
		out = append(out, t)
	}
	return out
}

// Table3Checks verifies the baseline relations Section 4 draws.
func Table3Checks(mx NetperfMatrix) []ShapeCheck {
	lb := mx[netperf.Loopback]
	return []ShapeCheck{
		checkGreater("loopback CPI: 2PPx worst", lb[machine.TwoPPx].Metrics.CPI, lb[machine.TwoLPx].Metrics.CPI),
		checkGreater("loopback CPI rises 1CPm -> 2CPm", lb[machine.TwoCPm].Metrics.CPI, lb[machine.OneCPm].Metrics.CPI),
		checkGreater("loopback CPI rises 1LPx -> 2LPx", lb[machine.TwoLPx].Metrics.CPI, lb[machine.OneLPx].Metrics.CPI),
		checkGreater("loopback bus traffic: order-of-magnitude jump 1CPm -> 2CPm",
			lb[machine.TwoCPm].Metrics.BTPI, 5*lb[machine.OneCPm].Metrics.BTPI+0.5),
		checkGreater("loopback bus traffic: 2PPx >> 1LPx", lb[machine.TwoPPx].Metrics.BTPI, 2*lb[machine.OneLPx].Metrics.BTPI),
		checkGreater("loopback L2MPI: 2PPx >> 1LPx", lb[machine.TwoPPx].Metrics.L2MPI, lb[machine.OneLPx].Metrics.L2MPI+0.2),
		checkNear("branch freq: PM ~2x Xeon (loopback)",
			lb[machine.OneCPm].Metrics.BranchFreq/lb[machine.OneLPx].Metrics.BranchFreq, 2.0, 0.25),
		checkGreater("BrMPR: Xeon above PM (loopback)", lb[machine.OneLPx].Metrics.BrMPR, lb[machine.OneCPm].Metrics.BrMPR),
	}
}

// ---- Figure 3 ----

// Figure3Table renders dual-processor throughput scaling.
func Figure3Table(mx AONMatrix) Table {
	t := Table{Title: "Figure 3: Dual-processor throughput scaling"}
	for _, p := range ScalingPairs {
		for _, uc := range workload.AllUseCases {
			t.Rows = append(t.Rows, TableRow{
				Label:  fmt.Sprintf("%s %s (paper)", p.Name, uc),
				Values: map[machine.ConfigID]float64{p.To: paperScaling[p.Name][uc]},
			})
			t.Rows = append(t.Rows, TableRow{
				Label:  fmt.Sprintf("%s %s (measured)", p.Name, uc),
				Values: map[machine.ConfigID]float64{p.To: mx.Scaling(p, uc)},
			})
		}
	}
	return t
}

// Figure3Checks verifies Section 5.1's three scaling trends.
func Figure3Checks(mx AONMatrix) []ShapeCheck {
	pm := func(uc workload.UseCase) float64 { return mx.Scaling(ScalingPairs[0], uc) }
	ht := func(uc workload.UseCase) float64 { return mx.Scaling(ScalingPairs[1], uc) }
	pp := func(uc workload.UseCase) float64 { return mx.Scaling(ScalingPairs[2], uc) }
	return []ShapeCheck{
		checkGreater("PM scaling grows FR -> CBR", pm(workload.CBR), pm(workload.FR)),
		checkGreater("PM scaling grows FR -> SV", pm(workload.SV), pm(workload.FR)),
		checkGreater("HT scaling reverses: FR > CBR", ht(workload.FR), ht(workload.CBR)),
		checkGreater("HT scaling reverses: CBR >= SV", ht(workload.CBR)+0.02, ht(workload.SV)),
		checkNear("2PPx scales ~2x for FR", pp(workload.FR), 1.97, 0.12),
		checkNear("2PPx scales ~2x for CBR", pp(workload.CBR), 1.98, 0.12),
		checkNear("2PPx scales ~2x for SV", pp(workload.SV), 1.97, 0.12),
		checkGreater("2PPx scales better than 2CPm (FR)", pp(workload.FR), pm(workload.FR)),
		checkGreater("HT scales worst overall (SV)", pm(workload.SV), ht(workload.SV)),
	}
}

// ---- Tables 4-6, Figures 4-5 ----

// metricTable renders one use-case x configuration grid, paper vs
// measured, for the given metric.
func metricTable(title string, mx AONMatrix, metric tableMetric, paper map[workload.UseCase]map[machine.ConfigID]float64) Table {
	t := Table{Title: title}
	for _, uc := range []workload.UseCase{workload.SV, workload.CBR, workload.FR} {
		if paper != nil {
			t.Rows = append(t.Rows, TableRow{Label: fmt.Sprintf("%s (paper)", uc), Values: paper[uc]})
		}
		meas := map[machine.ConfigID]float64{}
		for id, r := range mx[uc] {
			meas[id] = metric.Get(r.Metrics)
		}
		t.Rows = append(t.Rows, TableRow{Label: fmt.Sprintf("%s (measured)", uc), Values: meas})
	}
	return t
}

// Table4Table renders AON CPIs.
func Table4Table(mx AONMatrix) Table {
	return metricTable("Table 4: CPIs for the AON use cases", mx, metricCPI, PaperCPI)
}

// Table4Checks verifies Section 5.2's CPI relations.
func Table4Checks(mx AONMatrix) []ShapeCheck {
	cpi := func(uc workload.UseCase, id machine.ConfigID) float64 { return mx[uc][id].Metrics.CPI }
	var checks []ShapeCheck
	for _, id := range machine.AllConfigs {
		checks = append(checks, checkGreater(
			fmt.Sprintf("CPI grows CPU-intensive -> I/O-intensive on %s (FR > SV)", id),
			cpi(workload.FR, id), cpi(workload.SV, id)))
	}
	for _, uc := range workload.AllUseCases {
		checks = append(checks,
			checkGreater(fmt.Sprintf("Xeon CPI above PM CPI (%s, single unit)", uc),
				cpi(uc, machine.OneLPx), cpi(uc, machine.OneCPm)),
			checkGreater(fmt.Sprintf("Hyperthreading inflates CPI (%s)", uc),
				cpi(uc, machine.TwoLPx), cpi(uc, machine.OneLPx)),
			checkNear(fmt.Sprintf("2PPx CPI ~ 1LPx CPI (%s)", uc),
				cpi(uc, machine.TwoPPx), cpi(uc, machine.OneLPx), 0.35),
		)
	}
	return checks
}

// Figure4Table renders AON L2MPI.
func Figure4Table(mx AONMatrix) Table {
	return metricTable("Figure 4: L2 cache misses per retired instruction (%)", mx, metricL2MPI, nil)
}

// Figure4Checks verifies Section 5.3's relations.
func Figure4Checks(mx AONMatrix) []ShapeCheck {
	l2 := func(uc workload.UseCase, id machine.ConfigID) float64 { return mx[uc][id].Metrics.L2MPI }
	var checks []ShapeCheck
	for _, id := range machine.AllConfigs {
		checks = append(checks, checkGreater(
			fmt.Sprintf("L2MPI grows with I/O intensity on %s (FR > SV)", id),
			l2(workload.FR, id), l2(workload.SV, id)))
	}
	for _, uc := range workload.AllUseCases {
		checks = append(checks,
			checkGreater(fmt.Sprintf("Xeon L2MPI above PM (%s)", uc),
				l2(uc, machine.OneLPx), l2(uc, machine.OneCPm)),
			checkGreater(fmt.Sprintf("L2MPI rises 1CPm -> 2CPm (shared L2, %s)", uc),
				l2(uc, machine.TwoCPm)*1.02, l2(uc, machine.OneCPm)),
		)
	}
	return checks
}

// Figure5Table renders AON BTPI.
func Figure5Table(mx AONMatrix) Table {
	return metricTable("Figure 5: Bus transactions per retired instruction (%)", mx, metricBTPI, nil)
}

// Figure5Checks verifies Section 5.4's relations.
func Figure5Checks(mx AONMatrix) []ShapeCheck {
	bt := func(uc workload.UseCase, id machine.ConfigID) float64 { return mx[uc][id].Metrics.BTPI }
	var checks []ShapeCheck
	for _, id := range machine.AllConfigs {
		checks = append(checks, checkGreater(
			fmt.Sprintf("BTPI grows with I/O intensity on %s (FR > SV)", id),
			bt(workload.FR, id), bt(workload.SV, id)))
	}
	for _, uc := range workload.AllUseCases {
		checks = append(checks,
			checkGreater(fmt.Sprintf("BTPI rises 1CPm -> 2CPm (%s)", uc),
				bt(uc, machine.TwoCPm)*1.02, bt(uc, machine.OneCPm)),
			checkNear(fmt.Sprintf("BTPI 1LPx ~ 2PPx (independent L2s, %s)", uc),
				bt(uc, machine.TwoPPx), bt(uc, machine.OneLPx), 0.35),
		)
	}
	return checks
}

// Table5Table renders branch frequencies.
func Table5Table(mx AONMatrix) Table {
	return metricTable("Table 5: Branch instructions retired per instruction retired (%)", mx, metricBranchFreq, PaperBranchFreq)
}

// Table5Checks verifies Section 5.5's branch-frequency findings.
func Table5Checks(mx AONMatrix) []ShapeCheck {
	bf := func(uc workload.UseCase, id machine.ConfigID) float64 { return mx[uc][id].Metrics.BranchFreq }
	var checks []ShapeCheck
	for _, uc := range workload.AllUseCases {
		checks = append(checks, checkNear(
			fmt.Sprintf("PM retires ~2x the branch frequency of Xeon (%s)", uc),
			bf(uc, machine.OneCPm)/bf(uc, machine.OneLPx), 2.0, 0.25))
	}
	checks = append(checks,
		checkGreater("FR has ~25% more branches than SV (PM)",
			bf(workload.FR, machine.OneCPm), 1.1*bf(workload.SV, machine.OneCPm)),
		checkNear("branch freq constant within PM configs (SV)",
			bf(workload.SV, machine.OneCPm), bf(workload.SV, machine.TwoCPm), 0.1),
		checkNear("branch freq constant within Xeon configs (SV)",
			bf(workload.SV, machine.OneLPx), bf(workload.SV, machine.TwoPPx), 0.1),
	)
	return checks
}

// Table6Table renders branch misprediction ratios.
func Table6Table(mx AONMatrix) Table {
	return metricTable("Table 6: Branch misprediction ratios (%)", mx, metricBrMPR, PaperBrMPR)
}

// Table6Checks verifies Section 5.5's misprediction findings.
func Table6Checks(mx AONMatrix) []ShapeCheck {
	mp := func(uc workload.UseCase, id machine.ConfigID) float64 { return mx[uc][id].Metrics.BrMPR }
	var checks []ShapeCheck
	for _, id := range machine.AllConfigs {
		checks = append(checks, checkGreater(
			fmt.Sprintf("SV mispredicts more than CBR on %s", id),
			mp(workload.SV, id), mp(workload.CBR, id)))
	}
	for _, uc := range workload.AllUseCases {
		checks = append(checks,
			checkGreater(fmt.Sprintf("PM BrMPR significantly below Xeon (%s)", uc),
				mp(uc, machine.OneLPx), 2*mp(uc, machine.OneCPm)),
			checkGreater(fmt.Sprintf("Hyperthreading does not reduce BrMPR (%s)", uc),
				mp(uc, machine.TwoLPx)*1.05, mp(uc, machine.OneLPx)),
			checkNear(fmt.Sprintf("BrMPR stable 1LPx -> 2PPx (%s)", uc),
				mp(uc, machine.TwoPPx), mp(uc, machine.OneLPx), 0.15),
			checkNear(fmt.Sprintf("BrMPR stable 1CPm -> 2CPm (%s)", uc),
				mp(uc, machine.TwoCPm), mp(uc, machine.OneCPm), 0.15),
		)
	}
	return checks
}

// FailedChecks filters to the failing subset, sorted by name.
func FailedChecks(checks []ShapeCheck) []ShapeCheck {
	var out []ShapeCheck
	for _, c := range checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ThroughputTable renders AON application throughput (not in the paper as
// absolutes, but needed to interpret Figure 3).
func ThroughputTable(mx AONMatrix) Table {
	t := Table{Title: "AON application throughput (Mbps of message payload)"}
	for _, uc := range workload.AllUseCases {
		meas := map[machine.ConfigID]float64{}
		for id, r := range mx[uc] {
			meas[id] = r.Mbps
		}
		t.Rows = append(t.Rows, TableRow{Label: uc.String(), Values: meas})
	}
	return t
}

// UtilizationTable renders each logical CPU's busy share over the
// measurement window, its busy cycles over its clockticks, one row per
// use case and CPU; a configuration without that CPU shows "-".
func UtilizationTable(mx AONMatrix) Table {
	t := Table{Title: "Per-CPU utilization (% busy cycles over clockticks in the measurement window)"}
	for _, uc := range workload.AllUseCases {
		for cpu := 0; ; cpu++ {
			meas := map[machine.ConfigID]float64{}
			for _, id := range machine.AllConfigs {
				if r := mx[uc][id]; cpu < len(r.CPUs) {
					cs := r.CPUs[cpu]
					meas[id] = 100 * float64(cs.Get(counters.BusyCycles)) / float64(cs.Get(counters.Clockticks))
				}
			}
			if len(meas) == 0 {
				break
			}
			t.Rows = append(t.Rows, TableRow{Label: fmt.Sprintf("%s cpu%d", uc, cpu), Values: meas})
		}
	}
	return t
}

// ---- Ablations (DESIGN.md section 5) ----

// The single-unit cells two ablation rows are read against.
var (
	loopback1LPx = Cell{Config: machine.OneLPx, Netperf: true, Mode: netperf.Loopback}
	sv1LPx       = Cell{Config: machine.OneLPx, UseCase: workload.SV}
)

// ablations are the ablation report's rows. Each switches one machine
// mechanism off in a cell the paper's grid runs faithfully; show renders
// one run of that cell, reading g for its reference.
var ablations = []struct {
	label string
	cell  Cell
	show  func(g Grid, r Result) string
}{
	{"free coherence, 2PPx loopback:", Cell{Config: machine.TwoPPx, Netperf: true, Mode: netperf.Loopback,
		Machine: machine.Options{FreeCoherence: true}}, func(g Grid, r Result) string {
		return fmt.Sprintf("%.0f Mbps (%.2fx of 1LPx)", r.Netperf.Mbps, r.Netperf.Mbps/g[loopback1LPx].Netperf.Mbps)
	}},
	{"private L2 halves, 2CPm loopback:", Cell{Config: machine.TwoCPm, Netperf: true, Mode: netperf.Loopback,
		Machine: machine.Options{PrivateL2: true}}, func(_ Grid, r Result) string {
		return fmt.Sprintf("%.0f Mbps, CPI %.2f", r.Netperf.Mbps, r.Netperf.Metrics.CPI)
	}},
	{"private predictors, SV on 2LPx:", Cell{Config: machine.TwoLPx, UseCase: workload.SV,
		Machine: machine.Options{PrivatePredictors: true}}, func(g Grid, r Result) string {
		return fmt.Sprintf("BrMPR %.2f%% (1LPx %.2f%%)", r.AON.Metrics.BrMPR, g[sv1LPx].AON.Metrics.BrMPR)
	}},
	{"no prefetch, FR on 1CPm:", Cell{Config: machine.OneCPm, UseCase: workload.FR,
		Machine: machine.Options{NoPrefetch: true}}, func(_ Grid, r Result) string {
		return fmt.Sprintf("BTPI %.2f%%, %.0f Mbps", r.AON.Metrics.BTPI, r.AON.Mbps)
	}},
}

// faithful is c on the faithful machine.
func faithful(c Cell) Cell {
	c.Machine = machine.Options{}
	return c
}

// AblationCells lists the cells the ablation report reads: the two
// single-unit references, and each ablated cell with its faithful twin.
// Only the four ablated cells are not in the paper's grid.
func AblationCells() []Cell {
	out := []Cell{loopback1LPx, sv1LPx}
	for _, a := range ablations {
		out = append(out, a.cell, faithful(a.cell))
	}
	return out
}

// AblationReport renders each ablated cell beside its faithful twin from
// a grid that ran AblationCells.
func AblationReport(g Grid) string {
	var b strings.Builder
	b.WriteString("Ablations (DESIGN.md section 5): one machine mechanism switched off\n")
	for _, a := range ablations {
		fmt.Fprintf(&b, "  %-34s faithful %-26s ablated %s\n", a.label, a.show(g, g[faithful(a.cell)]), a.show(g, g[a.cell]))
	}
	return b.String()
}

// AblationChecks holds the one ablation effect the model carries: free
// coherence transfers lift the collapsed 2PPx loopback above 1LPx's.
func AblationChecks(g Grid) []ShapeCheck {
	return []ShapeCheck{checkGreater("free coherence lifts 2PPx loopback above 1LPx",
		g[ablations[0].cell].Netperf.Mbps, g[loopback1LPx].Netperf.Mbps)}
}
