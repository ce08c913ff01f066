// Command aonsim runs the paper's experiments on the simulated machines
// and prints paper-vs-measured tables plus the qualitative shape checks
// for every table and figure in the evaluation, beside the kernel
// instruction mixes and per-CPU utilization that explain them, and a
// live campaign phase per use case that calibrates them.
//
// Usage:
//
//	aonsim -exp all                 # every table, figure, extension and ablation (default)
//	aonsim -exp fig2|table3         # netperf baselines (-netperf-ms sizes them)
//	aonsim -exp fig3|table4|fig4|fig5|table5|table6
//	aonsim -exp specs               # Table 1 / Table 2
//	aonsim -exp ext                 # DPI/AUTH/XJ and the four-core extension
//	aonsim -exp ablate              # one machine mechanism switched off per row
//	aonsim -exp mix                 # per-kernel instruction mix over -msgs messages
//	aonsim -exp util                # per-CPU utilization, every config x FR/CBR/SV
//	aonsim -exp live -calibration-out cal.json   # simulated 2CPm vs live campaign phases
//	aonsim -exp fig3 -calibration cal.json       # scale predictions by a live artifact
//	aonsim -msgs 1200 -warmup 200   # measurement sizing
//
// Every experiment's runs are cells of one grid (harness.RunGrid), run
// once each at the one default sizing unless the flags resize them. Any
// experiment that prints shape checks exits 1 when one of them fails
// (-checks=false prints none and exits 0).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// blocks are the experiments -exp all prints, in its order; mix, util
// and live run only when named.
var blocks = []string{"specs", "fig2", "table3", "fig3", "table4", "fig4", "fig5", "table5", "table6", "ext", "ablate"}

// experiments are the -exp values.
var experiments = append(slices.Clone(blocks), "mix", "util", "live", "all")

// multicoreConfigs are the extension's one, two and four Pentium M cores.
var multicoreConfigs = []machine.ConfigID{machine.OneCPm, machine.TwoCPm, machine.FourCPm}

// plan lists the grid cells experiment exp reads; all's is the union of
// its blocks', each cell once.
func plan(exp string) []harness.Cell {
	switch exp {
	case "fig2", "table3":
		return harness.NetperfCells(machine.AllConfigs)
	case "fig3", "table4", "fig4", "fig5", "table5", "table6", "util":
		return harness.AONCells(workload.AllUseCases, machine.AllConfigs)
	case "ext":
		return append(harness.AONCells(workload.ExtendedUseCases, machine.AllConfigs),
			harness.AONCells([]workload.UseCase{workload.SV}, multicoreConfigs)...)
	case "ablate":
		return harness.AblationCells()
	case "all":
		var out []harness.Cell
		for _, b := range blocks {
			for _, c := range plan(b) {
				if !slices.Contains(out, c) {
					out = append(out, c)
				}
			}
		}
		return out
	}
	return nil
}

// run is the command: it parses args, writes results to stdout and
// diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aonsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(experiments, ", "))
	msgs := fs.Int("msgs", harness.DefaultAONOpts.MeasureMsgs, "measured messages per AON run (-exp mix: messages to process)")
	warm := fs.Int("warmup", harness.DefaultAONOpts.WarmupMsgs, "warmup messages per AON run")
	measureMs := fs.Float64("netperf-ms", harness.DefaultNetperfOpts.MeasureMs, "netperf measurement window (simulated ms)")
	checks := fs.Bool("checks", true, "run the qualitative shape checks")
	calIn := fs.String("calibration", "", "apply a live calibration artifact (written by -exp live) to the simulated counter predictions")
	calOut := fs.String("calibration-out", "", "-exp live: write the calibration artifact to this file")
	liveDur := fs.Duration("live-duration", 2*time.Second, "-exp live: live load length per use case")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !slices.Contains(experiments, *exp) {
		fmt.Fprintf(stderr, "aonsim: unknown -exp %q; valid: %s\n", *exp, strings.Join(experiments, ", "))
		return 2
	}
	if *liveDur <= 0 {
		fmt.Fprintf(stderr, "aonsim: -live-duration must be positive, got %v\n", *liveDur)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "aonsim:", err)
		return 1
	}

	var cal *harness.Calibration
	if *calIn != "" {
		var err error
		cal, err = harness.LoadCalibration(*calIn)
		if err != nil {
			fmt.Fprintln(stderr, "aonsim:", err)
			return 2
		}
		fmt.Fprintf(stderr, "aonsim: applying calibration %s (recorded against %s)\n", *calIn, cal.Config)
		if cal.Identity() {
			fmt.Fprintln(stderr, "aonsim: calibration carries identity scales (recorded without live perf events); predictions unchanged")
		}
	}

	aonOpts := harness.DefaultAONOpts
	aonOpts.MeasureMsgs = *msgs
	aonOpts.WarmupMsgs = *warm
	switch *exp {
	case "mix":
		if err := runMix(stdout, *msgs); err != nil {
			return fail(err)
		}
		return 0
	case "live":
		if err := runLive(stdout, stderr, aonOpts, cal, *liveDur, *calOut); err != nil {
			return fail(err)
		}
		return 0
	}

	npOpts := harness.DefaultNetperfOpts
	npOpts.MeasureMs = *measureMs
	var grid harness.Grid
	if cells := plan(*exp); len(cells) > 0 {
		fmt.Fprintf(stderr, "running %d simulated cells...\n", len(cells))
		var err error
		if grid, err = harness.RunGrid(cells, aonOpts, npOpts); err != nil {
			return fail(err)
		}
	}
	nmx, amx := grid.NetperfMatrix(), grid.AONMatrix()
	cal.ApplyMatrix(amx)

	// printed holds every shape check printed, which -exp all counts.
	var printed []harness.ShapeCheck
	printChecks := func(cs []harness.ShapeCheck) {
		if *checks {
			fmt.Fprintln(stdout, harness.FormatChecks(cs))
			printed = append(printed, cs...)
		}
	}
	block := func(name string) bool { return *exp == "all" || *exp == name }
	show := func(name string, t harness.Table, cs []harness.ShapeCheck) {
		if block(name) {
			fmt.Fprintln(stdout, t.Render())
			printChecks(cs)
		}
	}

	if block("specs") {
		fmt.Fprintln(stdout, "Table 1: Specifications of the systems under test")
		fmt.Fprintln(stdout, machine.SpecsTable())
		fmt.Fprintln(stdout, "Table 2: Notations for systems under test")
		for _, id := range machine.AllConfigs {
			fmt.Fprintf(stdout, "  %-5s %s\n", id, id.Explanation())
		}
		fmt.Fprintln(stdout)
	}
	show("fig2", harness.Figure2Table(nmx), harness.Figure2Checks(nmx))
	if block("table3") {
		for _, t := range harness.Table3Tables(nmx) {
			fmt.Fprintln(stdout, t.Render())
		}
		printChecks(harness.Table3Checks(nmx))
	}
	if *exp == "util" {
		fmt.Fprintln(stdout, harness.UtilizationTable(amx).Render())
		return 0
	}
	if *exp == "all" {
		fmt.Fprintln(stdout, harness.ThroughputTable(amx).Render())
	}
	show("fig3", harness.Figure3Table(amx), harness.Figure3Checks(amx))
	show("table4", harness.Table4Table(amx), harness.Table4Checks(amx))
	show("fig4", harness.Figure4Table(amx), harness.Figure4Checks(amx))
	show("fig5", harness.Figure5Table(amx), harness.Figure5Checks(amx))
	show("table5", harness.Table5Table(amx), harness.Table5Checks(amx))
	show("table6", harness.Table6Table(amx), harness.Table6Checks(amx))
	if block("ext") {
		printExtensions(stdout, amx)
	}
	if block("ablate") {
		fmt.Fprintln(stdout, harness.AblationReport(grid))
		printChecks(harness.AblationChecks(grid))
	}

	failed := harness.FailedChecks(printed)
	if *checks && *exp == "all" {
		fmt.Fprintf(stdout, "shape checks failed: %d\n", len(failed))
		if len(failed) > 0 {
			fmt.Fprintln(stdout, harness.FormatChecks(failed))
		}
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// printExtensions reports the extension use cases (DPI and AUTH, the
// paper's future-work operations, and XJ) and the multicore extension
// across the dual-processing transitions.
func printExtensions(w io.Writer, mx harness.AONMatrix) {
	fmt.Fprintln(w, "Extensions (paper future work, Section 6)")
	for _, uc := range workload.ExtendedUseCases {
		fmt.Fprintf(w, "  %s:", uc)
		for _, id := range machine.AllConfigs {
			fmt.Fprintf(w, "  %s=%.0fMbps", id, mx[uc][id].Mbps)
		}
		fmt.Fprintln(w)
		for _, p := range harness.ScalingPairs {
			fmt.Fprintf(w, "    scaling %-12s %.2f\n", p.Name, mx.Scaling(p, uc))
		}
	}
	fmt.Fprintln(w, "  multicore (SV):")
	for _, id := range multicoreConfigs {
		fmt.Fprintf(w, "    %-5s %8.0f Mbps  scaling %.2f\n", id, mx[workload.SV][id].Mbps,
			mx.Scaling(harness.ScalingPair{From: machine.OneCPm, To: id}, workload.SV))
	}
}
