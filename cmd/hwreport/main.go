// Command hwreport closes the loop between the two halves of the
// reproduction: for each paper use case (FR, CBR, SV) it runs the
// simulated machine (the internal/vtune counter methodology, as
// cmd/vtunereport does) to get the model's predicted CPI / L2MPI /
// branch-frequency / BrMPR, then stands up the live gateway with the
// perf_event_open measurement layer on loopback, drives it with real
// load, and prints a side-by-side text (or -json) report of simulated
// prediction vs live hardware measurement.
//
// On hosts where perf events are denied (unprivileged containers, CI)
// the live column degrades to the runtime-only fallback and the report
// says so — the command never fails for lack of a PMU.
//
// Usage:
//
//	hwreport                         # 2CPm prediction vs live, all three use cases
//	hwreport -config 2PPx -n 5000    # different simulated config, longer live run
//	hwreport -json                   # machine-readable rows
//
// With -timeline the live side runs a full sampling session instead of
// one snapshot: the gateway samples its measurement layer every
// -sample-interval while load runs for -live-duration, the session's
// mean CPI / cache-MPI / BrMPR is replayed against the model's
// prediction, and the per-use-case live/sim ratios are written as a
// calibration artifact (-calibration-out). A later run — or any caller
// of harness.LoadCalibration — can ingest it with -calibration, which
// scales the simulated predictions by the recorded ratios. Sessions
// recorded in the runtime-only fallback write identity scales (the
// model cannot calibrate itself) and the report says so.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/hwcount"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// Row is one use case's comparison: the simulated machine's predicted
// metrics next to the live gateway's measured (or fallback) ones.
type Row struct {
	UseCase      string                    `json:"usecase"`
	Width        int                       `json:"width,omitempty"` // -timeline -widths: live GOMAXPROCS
	SimConfig    string                    `json:"sim_config"`
	SimMsgsPerS  float64                   `json:"sim_msgs_per_sec"`
	Sim          counters.Metrics          `json:"sim"`
	Calibrated   bool                      `json:"calibrated,omitempty"` // sim column scaled by -calibration
	LiveMode     string                    `json:"live_mode"`
	LiveMsgsPerS float64                   `json:"live_msgs_per_sec"`
	Live         hwcount.Derived           `json:"live"`
	LiveSamples  int                       `json:"live_samples,omitempty"` // -timeline: session samples averaged
	LiveCounters *gateway.CountersSnapshot `json:"live_counters,omitempty"`
}

func main() {
	cfgName := flag.String("config", "2CPm", "simulated system: 1CPm, 2CPm, 1LPx, 2LPx, 2PPx")
	simMsgs := flag.Int("sim-msgs", 240, "simulated messages per use case (measurement window)")
	liveMsgs := flag.Int("n", 2000, "live messages per use case")
	conns := flag.Int("conns", 8, "live concurrent connections")
	size := flag.Int("size", workload.MessageBytes, "live POST body bytes")
	asJSON := flag.Bool("json", false, "emit JSON rows instead of the text table")
	tlMode := flag.Bool("timeline", false, "replay a live sampling session per use case against the model and write a calibration artifact")
	sampleInterval := flag.Duration("sample-interval", 100*time.Millisecond, "-timeline: sampling period (must be positive)")
	liveDur := flag.Duration("live-duration", 2*time.Second, "-timeline: live load length per use case")
	calOut := flag.String("calibration-out", "aon-calibration.json", "-timeline: where to write the calibration artifact")
	calIn := flag.String("calibration", "", "apply a calibration artifact (written by -timeline) to the simulated predictions")
	widths := flag.String("widths", "", "-timeline: comma-separated GOMAXPROCS widths to record per-width calibration entries at (e.g. 1,2,4); empty records one width-agnostic entry per use case")
	flag.Parse()

	if *sampleInterval <= 0 {
		fmt.Fprintf(os.Stderr, "hwreport: -sample-interval must be positive, got %v\n", *sampleInterval)
		os.Exit(2)
	}
	var cal *harness.Calibration
	if *calIn != "" {
		var err error
		cal, err = harness.LoadCalibration(*calIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hwreport:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "hwreport: applying calibration %s (recorded against %s)\n", *calIn, cal.Config)
		if cal.Identity() {
			fmt.Fprintln(os.Stderr, "hwreport: calibration carries identity scales (recorded without live perf events); predictions unchanged")
		}
	}

	var widthList []int
	if *widths != "" {
		for _, part := range strings.Split(*widths, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "hwreport: bad -widths entry %q\n", part)
				os.Exit(2)
			}
			widthList = append(widthList, n)
		}
	}

	if *tlMode {
		runTimeline(machine.ConfigID(*cfgName), *simMsgs, *conns, *size, *sampleInterval, *liveDur, *calOut, cal, *asJSON, widthList)
		return
	}
	if len(widthList) > 0 {
		fmt.Fprintln(os.Stderr, "hwreport: -widths requires -timeline")
		os.Exit(2)
	}

	var rows []Row
	for _, uc := range []workload.UseCase{workload.FR, workload.CBR, workload.SV} {
		row, err := compare(machine.ConfigID(*cfgName), uc, *simMsgs, *liveMsgs, *conns, *size, cal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hwreport:", err)
			os.Exit(1)
		}
		rows = append(rows, row)
	}

	if *asJSON {
		b, _ := json.MarshalIndent(rows, "", "  ")
		fmt.Println(string(b))
		return
	}
	fmt.Printf("hwreport: simulated %s prediction vs live loopback measurement\n", *cfgName)
	fmt.Printf("%-4s %6s | %8s %8s %8s | %8s %8s %8s  %s\n",
		"uc", "metric", "sim", "live", "ratio", "sim-mps", "live-mps", "", "live source")
	for _, r := range rows {
		src := r.LiveMode
		if r.LiveCounters != nil && r.LiveCounters.DerivedSource == "model" {
			src = "model fallback — " + r.LiveCounters.Notice
		}
		fmt.Printf("%-4s %6s | %8.2f %8.2f %8s | %8.0f %8.0f %8s  %s\n",
			r.UseCase, "CPI", r.Sim.CPI, r.Live.CPI, ratio(r.Live.CPI, r.Sim.CPI),
			r.SimMsgsPerS, r.LiveMsgsPerS, "", src)
		fmt.Printf("%-4s %6s | %8.2f %8.2f %8s |\n",
			"", "BrMPR%", r.Sim.BrMPR, r.Live.BrMPR, ratio(r.Live.BrMPR, r.Sim.BrMPR))
		fmt.Printf("%-4s %6s | %8.2f %8.2f %8s |\n",
			"", "BrFrq%", r.Sim.BranchFreq, r.Live.BranchFreq, ratio(r.Live.BranchFreq, r.Sim.BranchFreq))
		fmt.Printf("%-4s %6s | %8.2f %8.2f %8s |\n",
			"", "MPI%", r.Sim.L2MPI, r.Live.CacheMPI, ratio(r.Live.CacheMPI, r.Sim.L2MPI))
	}
	fmt.Println("ratio = live/sim; MPI compares simulated L2MPI with live last-level cache MPI.")
}

func ratio(live, sim float64) string {
	if sim == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", live/sim)
}

// compare produces one row: simulate, then measure live.
func compare(id machine.ConfigID, uc workload.UseCase, simMsgs, liveMsgs, conns, size int, cal *harness.Calibration) (Row, error) {
	sim, err := simulate(id, uc, simMsgs, cal)
	if err != nil {
		return Row{}, err
	}

	srv, err := gateway.New(gateway.Config{UseCase: uc, Counters: true})
	if err != nil {
		return Row{}, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return Row{}, err
	}
	rep, loadErr := gateway.RunLoad(gateway.LoadConfig{
		Addr: srv.Addr().String(), UseCase: uc,
		Conns: conns, Messages: liveMsgs, Size: size,
	})
	snap := srv.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	shutErr := srv.Shutdown(ctx)
	cancel()
	if loadErr != nil {
		return Row{}, fmt.Errorf("live %s: %w", uc, loadErr)
	}
	if shutErr != nil {
		return Row{}, fmt.Errorf("live %s shutdown: %w", uc, shutErr)
	}

	row := Row{
		UseCase:      uc.String(),
		SimConfig:    string(id),
		SimMsgsPerS:  sim.MsgPerSec,
		Sim:          sim.Metrics,
		Calibrated:   cal != nil,
		LiveMsgsPerS: rep.MsgsPerSec,
	}
	if c := snap.Counters; c != nil {
		row.LiveMode = c.Mode
		row.Live = c.Derived
		row.LiveCounters = c
	}
	return row, nil
}

// simulate runs the model for one use case and applies the loaded
// calibration (a no-op when cal is nil).
func simulate(id machine.ConfigID, uc workload.UseCase, simMsgs int, cal *harness.Calibration) (harness.AONResult, error) {
	opts := harness.DefaultAONOpts
	opts.MeasureMsgs = simMsgs
	sim, err := harness.RunAON(id, uc, opts)
	if err != nil {
		return sim, fmt.Errorf("simulate %s %s: %w", id, uc, err)
	}
	sim.Metrics = cal.Apply(uc, sim.Metrics)
	return sim, nil
}

// runTimeline is the -timeline mode: one sampling session per use case
// (and, with -widths, per GOMAXPROCS width) replayed against the model,
// producing both the comparison table and the calibration artifact.
func runTimeline(id machine.ConfigID, simMsgs, conns, size int, interval, dur time.Duration, calOut string, cal *harness.Calibration, asJSON bool, widths []int) {
	if len(widths) == 0 {
		widths = []int{0} // one width-agnostic entry per use case
	}
	out := &harness.Calibration{Config: string(id), Entries: map[string]harness.CalibrationEntry{}}
	var rows []Row
	for _, uc := range []workload.UseCase{workload.FR, workload.CBR, workload.SV} {
		for _, w := range widths {
			row, entry, err := timelineCompare(id, uc, simMsgs, conns, size, interval, dur, cal, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hwreport:", err)
				os.Exit(1)
			}
			out.Entries[harness.EntryKey(uc, w)] = entry
			rows = append(rows, row)
		}
	}
	if err := out.WriteFile(calOut); err != nil {
		fmt.Fprintln(os.Stderr, "hwreport:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hwreport: wrote calibration artifact to %s\n", calOut)
	if out.Identity() {
		fmt.Fprintln(os.Stderr, "hwreport: session ran without live perf events — artifact carries identity scales")
	}

	if asJSON {
		b, _ := json.MarshalIndent(struct {
			Rows        []Row                `json:"rows"`
			Calibration *harness.Calibration `json:"calibration"`
		}{rows, out}, "", "  ")
		fmt.Println(string(b))
		return
	}
	fmt.Printf("hwreport: simulated %s prediction vs live sampling session (%v interval, %v load)\n", id, interval, dur)
	fmt.Printf("%-4s %5s %8s | %8s %8s %8s %8s | %10s %9s | %s\n",
		"uc", "width", "samples", "sim-cpi", "live-cpi", "scale", "mpi-scl", "live-mps", "p50(us)", "live source")
	for _, r := range rows {
		key := r.UseCase
		if r.Width > 0 {
			key = fmt.Sprintf("%s@%d", r.UseCase, r.Width)
		}
		e := out.Entries[key]
		width := "-"
		if r.Width > 0 {
			width = strconv.Itoa(r.Width)
		}
		fmt.Printf("%-4s %5s %8d | %8.2f %8.2f %8.2f %8.2f | %10.0f %9.0f | %s\n",
			r.UseCase, width, e.Samples, e.SimCPI, e.LiveCPI, e.CPIScale, e.MPIScale,
			e.LiveMsgsPerSec, e.LiveP50US, e.LiveSource)
	}
	fmt.Println("scale = live/sim ratio the artifact stores; 1.00 on model-sourced sessions.")
}

// timelineCompare runs one use case's sampling session at the given
// GOMAXPROCS width (0: leave it as is) and averages the session's
// derived metrics into a calibration entry.
func timelineCompare(id machine.ConfigID, uc workload.UseCase, simMsgs, conns, size int, interval, dur time.Duration, cal *harness.Calibration, width int) (Row, harness.CalibrationEntry, error) {
	sim, err := simulate(id, uc, simMsgs, cal)
	if err != nil {
		return Row{}, harness.CalibrationEntry{}, err
	}

	if width > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	}
	srv, err := gateway.New(gateway.Config{UseCase: uc, Timeline: true, SampleInterval: interval})
	if err != nil {
		return Row{}, harness.CalibrationEntry{}, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return Row{}, harness.CalibrationEntry{}, err
	}
	rep, loadErr := gateway.RunLoad(gateway.LoadConfig{
		Addr: srv.Addr().String(), UseCase: uc,
		Conns: conns, Duration: dur, Size: size,
	})
	samples := srv.TimelineSamples(0)
	snap := srv.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	shutErr := srv.Shutdown(ctx)
	cancel()
	if loadErr != nil {
		return Row{}, harness.CalibrationEntry{}, fmt.Errorf("live %s: %w", uc, loadErr)
	}
	if shutErr != nil {
		return Row{}, harness.CalibrationEntry{}, fmt.Errorf("live %s shutdown: %w", uc, shutErr)
	}

	// Average the session. Hardware-sourced samples win: if any exist,
	// only they feed the mean (a transient fallback window should not
	// dilute real measurements); otherwise the model-sourced samples
	// stand in and the entry pins identity scales.
	source := "model"
	for _, s := range samples {
		if s.DerivedSource == "hw" {
			source = "hw"
			break
		}
	}
	var n int
	var cpi, mpi, brmpr float64
	for _, s := range samples {
		if s.DerivedSource != source || s.CPI <= 0 {
			continue
		}
		cpi += s.CPI
		mpi += s.CacheMPI
		brmpr += s.BrMPR
		n++
	}
	if n > 0 {
		cpi, mpi, brmpr = cpi/float64(n), mpi/float64(n), brmpr/float64(n)
	}
	entry := harness.NewCalibrationEntry(sim.Metrics, cpi, mpi, brmpr, n, source)
	entry.Width = width
	entry.LiveP50US = float64(rep.Latency.P50US)
	entry.LiveMsgsPerSec = rep.MsgsPerSec

	row := Row{
		UseCase:      uc.String(),
		Width:        width,
		SimConfig:    string(id),
		SimMsgsPerS:  sim.MsgPerSec,
		Sim:          sim.Metrics,
		Calibrated:   cal != nil,
		LiveMsgsPerS: rep.MsgsPerSec,
		Live:         hwcount.Derived{CPI: cpi, CacheMPI: mpi, BrMPR: brmpr},
		LiveSamples:  n,
	}
	if c := snap.Counters; c != nil {
		row.LiveMode = c.Mode
		row.Live.BranchFreq = c.Derived.BranchFreq
	}
	return row, entry, nil
}
