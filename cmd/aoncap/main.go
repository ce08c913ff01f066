// Command aoncap is the analytic capacity model offline: it replays a
// recorded session artifact (the CSV aongate dumps) — or a calibration
// artifact's demand seeds — through internal/capacity and prints
// Figure-5/6-style predicted-vs-measured tables.
//
// Two table families come out:
//
//   - Replay (-csv): every session sample becomes one row — the load the
//     sample observed, what the model predicts at that load, and the
//     per-row throughput/p99 error. This is the "model error per load
//     point" view that says where the M/M/c abstraction tracks the live
//     gateway and where it drifts.
//
//   - Scaling (-widths): the model re-solved at each GOMAXPROCS width —
//     predicted saturation throughput, the admissible load under the p99
//     target, and the scaling factor relative to the first width. The
//     analytic twin of the paper's Figures 5/6 one-unit→two-unit curves,
//     and of `aonload -sweep`'s measured table.
//
// The worker demand seeds from (highest precedence first): -demand-us,
// the session's minimum positive p50 (the closest the session got to a
// no-contention service time), a calibration artifact's recorded live
// p50 (-calibration with -usecase), or the built-in per-use-case seed
// table (capacity.SeedDemands — covers FR/CBR/SV/DPI/AUTH/XJ) so a bare
// -usecase answers before any artifact exists.
//
// Usage:
//
//	aoncap -csv session.csv
//	aoncap -csv session.csv -widths 1,2,4,8 -target-p99 50ms
//	aoncap -calibration aon-calibration.json -usecase CBR -widths 1,2,4
//	aoncap -demand-us 900 -widths 1,2,4,8,16 -replicas 2
//	aoncap -usecase XJ -widths 1,2,4   # built-in use-case seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/capacity"
	"repro/internal/harness"
	"repro/internal/session"
	"repro/internal/workload"
)

func main() {
	csvPath := flag.String("csv", "", "session artifact (CSV written by aongate) to replay against the model")
	calPath := flag.String("calibration", "", "calibration artifact (aonsim -exp live) to seed demands from")
	ucName := flag.String("usecase", "CBR", "use case whose calibration entry seeds the demand (-calibration mode)")
	demandUS := flag.Float64("demand-us", 0, "override the per-message worker demand in microseconds")
	targetP99 := flag.Duration("target-p99", 100*time.Millisecond, "latency bound for admissible-load columns")
	widths := flag.String("widths", "", "comma-separated GOMAXPROCS widths for the predicted scaling table (e.g. 1,2,4,8)")
	replicas := flag.Int("replicas", 1, "backend replicas sharing the forward demand in the scaling table")
	forwardUS := flag.Float64("forward-us", 0, "per-message forward (backend round-trip) demand in microseconds")
	backendConns := flag.Int("backend-conns", 8, "modeled per-backend connection-pool bound (with -forward-us)")
	flag.Parse()

	if *targetP99 <= 0 {
		fatal("-target-p99 must be positive")
	}
	widthList, err := parseWidths(*widths)
	if err != nil {
		fatal(err.Error())
	}

	var rows []session.CSVRow
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			fatal(err.Error())
		}
		rows, err = session.ReadCSV(f)
		f.Close()
		if err != nil {
			fatal(err.Error())
		}
	}

	demand, width, source := seedDemand(rows, *calPath, *ucName, *demandUS)
	var demands capacity.StageDemands
	if demand > 0 {
		demands = capacity.StageDemands{Process: demand, Forward: *forwardUS / 1e6}
	} else if seed, ok := capacity.SeedDemands(*ucName); ok {
		// Last resort: the built-in per-use-case seed table, so a bare
		// `aoncap -usecase XJ -widths 1,2,4` answers before any session
		// or calibration artifact exists.
		demands = seed
		demands.Forward = *forwardUS / 1e6
		demand = demands.WorkerDemand()
		source = fmt.Sprintf("built-in %s use-case seed", *ucName)
	} else {
		fatal("no demand seed: give -csv, -calibration, or -demand-us (or -usecase with a built-in seed: " +
			strings.Join(capacity.SeededUseCases(), ",") + ")")
	}
	fmt.Printf("aoncap: worker demand %.0fus (%s), target p99 %v\n", demands.WorkerDemand()*1e6, source, *targetP99)
	topo := capacity.GatewayTopology{Workers: width, Backends: *replicas}
	if *forwardUS > 0 {
		topo.BackendConns = *backendConns
	}

	if len(rows) > 0 {
		replayTable(rows, demands, topo, *targetP99)
	}
	if len(widthList) > 0 {
		scalingTable(widthList, demands, topo, *targetP99)
	}
	if len(rows) == 0 && len(widthList) == 0 {
		// Bare demand seed: a default scaling table is the useful answer.
		scalingTable([]int{1, 2, 4, 8}, demands, topo, *targetP99)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "aoncap:", msg)
	os.Exit(2)
}

func parseWidths(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -widths entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// seedDemand resolves the per-message worker demand (seconds) and the
// width the replay should model (the GOMAXPROCS the session ran at).
func seedDemand(rows []session.CSVRow, calPath, ucName string, overrideUS float64) (demand float64, width int, source string) {
	width = 1
	for _, r := range rows {
		width = max(width, r.GOMAXPROCS)
	}
	if overrideUS > 0 {
		return overrideUS / 1e6, width, "-demand-us override"
	}
	if len(rows) > 0 {
		// The session's smallest positive p50 is the closest it came to a
		// no-contention service time.
		min := uint64(0)
		for _, r := range rows {
			if r.LatencyP50US > 0 && (min == 0 || r.LatencyP50US < min) {
				min = r.LatencyP50US
			}
		}
		if min > 0 {
			return float64(min) / 1e6, width, "session min p50"
		}
	}
	if calPath != "" {
		uc, err := workload.ParseUseCase(ucName)
		if err != nil {
			fatal(err.Error())
		}
		cal, err := harness.LoadCalibration(calPath)
		if err != nil {
			fatal(err.Error())
		}
		e, ok := cal.Entries[uc.String()]
		if !ok || e.LiveP50US <= 0 {
			fatal(fmt.Sprintf("calibration has no live p50 for %s (record with aonsim -exp live)", uc))
		}
		return e.LiveP50US / 1e6, width, fmt.Sprintf("calibration %s", uc)
	}
	return 0, width, ""
}

// replayTable prints the per-sample predicted-vs-measured comparison.
func replayTable(rows []session.CSVRow, d capacity.StageDemands, topo capacity.GatewayTopology, target time.Duration) {
	fmt.Printf("\nreplay: model at width %d vs %d session samples\n", topo.Workers, len(rows))
	fmt.Printf("%8s %10s %10s %10s %7s %10s %10s %7s\n",
		"t(ms)", "offered/s", "meas/s", "pred/s", "err%", "meas-p99", "pred-p99", "err%")
	m := capacity.GatewayModel(d, topo)
	var sumTputErr, sumP99Err float64
	var n int
	for _, r := range rows {
		if r.Messages == 0 && r.Shed == 0 {
			continue // idle sample: nothing to compare
		}
		offered := r.OfferedPerSec()
		p := m.Predict(offered)
		tputErr := capacity.ErrPct(p.ThroughputPerSec, r.MsgsPerSec)
		p99Err := capacity.ErrPct(p.P99US, float64(r.LatencyP99US))
		fmt.Printf("%8d %10.0f %10.0f %10.0f %7.1f %10d %10.0f %7.1f\n",
			r.TMS, offered, r.MsgsPerSec, p.ThroughputPerSec, tputErr,
			r.LatencyP99US, p.P99US, p99Err)
		sumTputErr += tputErr
		sumP99Err += p99Err
		n++
	}
	if n > 0 {
		fmt.Printf("mean abs error over %d samples: throughput %.1f%%, p99 %.1f%%\n",
			n, sumTputErr/float64(n), sumP99Err/float64(n))
	} else {
		fmt.Println("(session has no loaded samples)")
	}
}

// scalingTable prints the predicted width sweep — the analytic Figure
// 5/6.
func scalingTable(widths []int, d capacity.StageDemands, topo capacity.GatewayTopology, target time.Duration) {
	fmt.Printf("\npredicted scaling (p99 target %v, %d backend replica(s))\n", target, topo.Backends)
	fmt.Printf("%6s %12s %14s %10s %8s\n", "width", "capacity/s", "admissible/s", "p99@adm", "scaling")
	var base float64
	for _, w := range widths {
		t := topo
		t.Workers = w
		m := capacity.GatewayModel(d, t)
		sat := m.Predict(1e12).ThroughputPerSec // offered far beyond any capacity
		adm := m.MaxLoadForP99(float64(target.Microseconds()))
		p99 := m.Predict(adm).P99US
		if base == 0 {
			base = sat
		}
		scaling := 0.0
		if base > 0 {
			scaling = sat / base
		}
		fmt.Printf("%6d %12.0f %14.0f %10.0f %8.2f\n", w, sat, adm, p99, scaling)
	}
}
