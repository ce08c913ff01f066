// Command aonsim runs the paper's experiments on the simulated machines
// and prints paper-vs-measured tables plus the qualitative shape checks
// for every table and figure in the evaluation, beside the kernel
// instruction mixes and per-CPU utilization that explain them, a live
// sampling session that calibrates them, and the analytic capacity model.
//
// Usage:
//
//	aonsim -exp all                 # every table and figure (default)
//	aonsim -exp fig2|table3         # netperf baselines (-netperf-ms sizes them)
//	aonsim -exp fig3|table4|fig4|fig5|table5|table6
//	aonsim -exp specs               # Table 1 / Table 2
//	aonsim -exp ext                 # DPI/AUTH/XJ and the four-core extension
//	aonsim -exp mix                 # per-kernel instruction mix over -msgs messages
//	aonsim -exp util                # per-CPU utilization, every config x FR/CBR/SV
//	aonsim -exp live -calibration-out cal.json   # simulated 2CPm vs live sessions
//	aonsim -exp fig3 -calibration cal.json       # scale predictions by a live artifact
//	aonsim -exp capacity -csv session.csv -widths 1,2,4 -target-p99 50ms
//	aonsim -exp capacity -calibration cal.json -usecase CBR
//	aonsim -exp capacity -usecase XJ -widths 1,2,4   # built-in use-case seed
//	aonsim -msgs 1200 -warmup 200   # measurement sizing
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

// experiments are the -exp values. "all" is every paper table and figure
// plus ext; mix, util, live and capacity run only when named.
var experiments = []string{"specs", "fig2", "table3", "fig3", "table4", "fig4", "fig5", "table5", "table6", "ext", "mix", "util", "live", "capacity", "all"}

// run is the command: it parses args, writes results to stdout and
// diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aonsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(experiments, ", "))
	msgs := fs.Int("msgs", 600, "measured messages per AON run (-exp mix: messages to process)")
	warm := fs.Int("warmup", 120, "warmup messages per AON run")
	measureMs := fs.Float64("netperf-ms", 8, "netperf measurement window (simulated ms)")
	checks := fs.Bool("checks", true, "run the qualitative shape checks")
	calIn := fs.String("calibration", "", "apply a live calibration artifact (written by -exp live) to the simulated counter predictions (-exp capacity: seed the demand from its live p50)")
	calOut := fs.String("calibration-out", "", "-exp live: write the calibration artifact to this file")
	liveDur := fs.Duration("live-duration", 2*time.Second, "-exp live: live load length per use case")
	var capArgs capacityArgs
	fs.StringVar(&capArgs.csv, "csv", "", "-exp capacity: session artifact (CSV written by aongate) to replay against the model")
	fs.StringVar(&capArgs.usecase, "usecase", "CBR", "-exp capacity: use case whose calibration entry or built-in seed sets the demand")
	fs.Float64Var(&capArgs.demandUS, "demand-us", 0, "-exp capacity: override the per-message worker demand in microseconds")
	fs.StringVar(&capArgs.widths, "widths", "", "-exp capacity: comma-separated GOMAXPROCS widths for the predicted scaling table (e.g. 1,2,4,8)")
	fs.DurationVar(&capArgs.targetP99, "target-p99", 100*time.Millisecond, "-exp capacity: latency bound for the admissible-load column")
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
	case "capacity":
		if err := runCapacity(stdout, capArgs, cal); err != nil {
			fmt.Fprintln(stderr, "aonsim:", err)
			return 2
		}
		return 0
	}

	needNetperf := *exp == "all" || *exp == "fig2" || *exp == "table3"
	needAON := slices.Contains([]string{"all", "fig3", "table4", "fig4", "fig5", "table5", "table6", "util"}, *exp)

	if *exp == "specs" || *exp == "all" {
		fmt.Fprintln(stdout, "Table 1: Specifications of the systems under test")
		fmt.Fprintln(stdout, machine.SpecsTable())
		fmt.Fprintln(stdout, "Table 2: Notations for systems under test")
		for _, id := range machine.AllConfigs {
			fmt.Fprintf(stdout, "  %-5s %s\n", id, id.Explanation())
		}
		fmt.Fprintln(stdout)
	}

	var nmx harness.NetperfMatrix
	if needNetperf {
		opts := harness.DefaultNetperfOpts
		opts.MeasureMs = *measureMs
		fmt.Fprintln(stderr, "running netperf baselines...")
		nmx = harness.RunNetperfMatrix(opts)
	}
	var amx harness.AONMatrix
	if needAON {
		fmt.Fprintln(stderr, "running XML server application matrix...")
		var err error
		amx, err = harness.RunAONMatrix(aonOpts)
		if err != nil {
			return fail(err)
		}
		cal.ApplyMatrix(amx)
	}

	show := func(name string, t harness.Table, cs []harness.ShapeCheck) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Fprintln(stdout, t.Render())
		if *checks && cs != nil {
			fmt.Fprintln(stdout, harness.FormatChecks(cs))
		}
	}

	if nmx != nil {
		show("fig2", harness.Figure2Table(nmx), harness.Figure2Checks(nmx))
		if *exp == "all" || *exp == "table3" {
			for _, t := range harness.Table3Tables(nmx) {
				fmt.Fprintln(stdout, t.Render())
			}
			if *checks {
				fmt.Fprintln(stdout, harness.FormatChecks(harness.Table3Checks(nmx)))
			}
		}
	}
	if *exp == "util" {
		fmt.Fprintln(stdout, harness.UtilizationTable(amx).Render())
		return 0
	}
	if amx != nil {
		if *exp == "all" {
			fmt.Fprintln(stdout, harness.ThroughputTable(amx).Render())
		}
		show("fig3", harness.Figure3Table(amx), harness.Figure3Checks(amx))
		show("table4", harness.Table4Table(amx), harness.Table4Checks(amx))
		show("fig4", harness.Figure4Table(amx), harness.Figure4Checks(amx))
		show("fig5", harness.Figure5Table(amx), harness.Figure5Checks(amx))
		show("table5", harness.Table5Table(amx), harness.Table5Checks(amx))
		show("table6", harness.Table6Table(amx), harness.Table6Checks(amx))
	}

	if *exp == "ext" || *exp == "all" {
		if err := runExtensions(stdout, aonOpts); err != nil {
			return fail(err)
		}
	}

	if *checks && nmx != nil && amx != nil && *exp == "all" {
		failed := harness.FailedChecks(harness.AllChecks(nmx, amx))
		fmt.Fprintf(stdout, "shape checks failed: %d\n", len(failed))
		if len(failed) > 0 {
			fmt.Fprintln(stdout, harness.FormatChecks(failed))
		}
	}
	return 0
}

// runExtensions reports the extension use cases (DPI and AUTH, the
// paper's future-work operations, and XJ) and the multicore extension
// across the dual-processing transitions.
func runExtensions(w io.Writer, opts harness.AONOpts) error {
	fmt.Fprintln(w, "Extensions (paper future work, Section 6)")
	for _, uc := range workload.ExtendedUseCases {
		fmt.Fprintf(w, "  %s:", uc)
		base := map[machine.ConfigID]float64{}
		for _, id := range machine.AllConfigs {
			r, err := harness.RunAON(id, uc, opts)
			if err != nil {
				return err
			}
			base[id] = r.Mbps
			fmt.Fprintf(w, "  %s=%.0fMbps", id, r.Mbps)
		}
		fmt.Fprintln(w)
		for _, p := range harness.ScalingPairs {
			fmt.Fprintf(w, "    scaling %-12s %.2f\n", p.Name, base[p.To]/base[p.From])
		}
	}
	fmt.Fprintln(w, "  multicore (SV):")
	var first float64
	for _, id := range []machine.ConfigID{machine.OneCPm, machine.TwoCPm, machine.FourCPm} {
		r, err := harness.RunAON(id, workload.SV, opts)
		if err != nil {
			return err
		}
		if first == 0 {
			first = r.Mbps
		}
		fmt.Fprintf(w, "    %-5s %8.0f Mbps  scaling %.2f\n", id, r.Mbps, r.Mbps/first)
	}
	return nil
}
