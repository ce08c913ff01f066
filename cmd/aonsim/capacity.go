package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/capacity"
	"repro/internal/harness"
	"repro/internal/session"
	"repro/internal/workload"
)

// capacityArgs are the -exp capacity flags.
type capacityArgs struct {
	csv       string        // session artifact to replay
	usecase   string        // use case whose calibration entry or built-in seed sets the demand
	demandUS  float64       // demand override, microseconds
	widths    string        // comma-separated GOMAXPROCS widths
	targetP99 time.Duration // latency bound of the admissible-load column
}

// runCapacity is -exp capacity: the analytic capacity model
// (internal/capacity) offline, in two tables.
//
//   - Replay (-csv): every loaded sample of a session artifact (the CSV
//     aongate dumps) becomes one row — the load it observed, what the model
//     predicts at that load, and the throughput/p99 error — at the widest
//     GOMAXPROCS the session ran at.
//   - Scaling (-widths): the model re-solved at each width — saturation
//     throughput, the admissible load under -target-p99 and the scaling
//     factor over the first width: the analytic twin of Figure 3's one- to
//     two-unit curves and of `aonload -sweep`'s measured table. With
//     neither table asked for, widths 1,2,4,8.
//
// The worker demand seeds from, highest precedence first: -demand-us, the
// session's smallest positive p50 (the closest it came to a no-contention
// service time), the -calibration artifact's live p50 for -usecase, and
// the built-in per-use-case seed (capacity.SeedDemands).
func runCapacity(w io.Writer, a capacityArgs, cal *harness.Calibration) error {
	if a.targetP99 <= 0 {
		return errors.New("-target-p99 must be positive")
	}
	widths, err := parseWidths(a.widths)
	if err != nil {
		return err
	}
	var rows []session.CSVRow
	if a.csv != "" {
		f, err := os.Open(a.csv)
		if err != nil {
			return err
		}
		rows, err = session.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	demands, width, source, err := seedDemands(rows, cal, a.usecase, a.demandUS)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "aonsim: worker demand %.0fus (%s), target p99 %v\n", demands.WorkerDemand()*1e6, source, a.targetP99)
	if len(rows) > 0 {
		replayTable(w, rows, demands, width)
	} else if len(widths) == 0 {
		widths = []int{1, 2, 4, 8}
	}
	if len(widths) > 0 {
		scalingTable(w, widths, demands, a.targetP99)
	}
	return nil
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

// seedDemands resolves the model's stage demands, where they came from,
// and the width a replay models: the widest GOMAXPROCS among rows.
func seedDemands(rows []session.CSVRow, cal *harness.Calibration, ucName string, overrideUS float64) (d capacity.StageDemands, width int, source string, err error) {
	width = 1
	var minP50 uint64
	for _, r := range rows {
		width = max(width, r.GOMAXPROCS)
		if r.LatencyP50US > 0 && (minP50 == 0 || r.LatencyP50US < minP50) {
			minP50 = r.LatencyP50US
		}
	}
	switch {
	case overrideUS > 0:
		return capacity.StageDemands{Process: overrideUS / 1e6}, width, "-demand-us override", nil
	case minP50 > 0:
		return capacity.StageDemands{Process: float64(minP50) / 1e6}, width, "session min p50", nil
	case cal != nil:
		uc, err := workload.ParseUseCase(ucName)
		if err != nil {
			return d, width, "", err
		}
		e, ok := cal.Entries[uc.String()]
		if !ok || e.LiveP50US <= 0 {
			return d, width, "", fmt.Errorf("calibration has no live p50 for %s (record with aonsim -exp live)", uc)
		}
		return capacity.StageDemands{Process: e.LiveP50US / 1e6}, width, fmt.Sprintf("calibration %s", uc), nil
	}
	if seed, ok := capacity.SeedDemands(ucName); ok {
		return seed, width, fmt.Sprintf("built-in %s use-case seed", ucName), nil
	}
	return d, width, "", errors.New("no demand seed: give -csv, -calibration, or -demand-us (or -usecase with a built-in seed: " +
		strings.Join(capacity.SeededUseCases(), ",") + ")")
}

// replayTable prints the per-sample predicted-vs-measured comparison.
func replayTable(w io.Writer, rows []session.CSVRow, d capacity.StageDemands, width int) {
	fmt.Fprintf(w, "\nreplay: model at width %d vs %d session samples\n", width, len(rows))
	fmt.Fprintf(w, "%8s %10s %10s %10s %7s %10s %10s %7s\n",
		"t(ms)", "offered/s", "meas/s", "pred/s", "err%", "meas-p99", "pred-p99", "err%")
	m := capacity.GatewayModel(d, capacity.GatewayTopology{Workers: width})
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
		fmt.Fprintf(w, "%8d %10.0f %10.0f %10.0f %7.1f %10d %10.0f %7.1f\n",
			r.TMS, offered, r.MsgsPerSec, p.ThroughputPerSec, tputErr,
			r.LatencyP99US, p.P99US, p99Err)
		sumTputErr += tputErr
		sumP99Err += p99Err
		n++
	}
	if n > 0 {
		fmt.Fprintf(w, "mean abs error over %d samples: throughput %.1f%%, p99 %.1f%%\n",
			n, sumTputErr/float64(n), sumP99Err/float64(n))
	} else {
		fmt.Fprintln(w, "(session has no loaded samples)")
	}
}

// scalingTable prints the predicted width sweep. The gateway answers in
// place in this model, so the backend replica count is fixed at one.
func scalingTable(w io.Writer, widths []int, d capacity.StageDemands, target time.Duration) {
	fmt.Fprintf(w, "\npredicted scaling (p99 target %v, 1 backend replica(s))\n", target)
	fmt.Fprintf(w, "%6s %12s %14s %10s %8s\n", "width", "capacity/s", "admissible/s", "p99@adm", "scaling")
	var base float64
	for _, width := range widths {
		m := capacity.GatewayModel(d, capacity.GatewayTopology{Workers: width})
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
		fmt.Fprintf(w, "%6d %12.0f %14.0f %10.0f %8.2f\n", width, sat, adm, p99, scaling)
	}
}
