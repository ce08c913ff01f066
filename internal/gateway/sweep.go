package gateway

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/capacity"
	"repro/internal/dtrace"
)

// SweepResult is one row of the scaling study: the gateway run on
// GOMAXPROCS=n.
type SweepResult struct {
	Procs  int      `json:"gomaxprocs"`
	Report Report   `json:"report"`
	Server Snapshot `json:"server"`
}

// RunSweep measures throughput scaling the way the paper's Figures 5/6
// measure 1-unit→2-unit scaling, but on the live machine: for each entry
// of procs it sets GOMAXPROCS — the gateway's parallelism — starts an
// in-process gateway on loopback, drives it with cfg, and tears it
// down. Like the paper's netperf loopback mode, client and server share
// the machine, so absolute numbers are conservative; the *shape* of the
// curve is the comparable result.
func RunSweep(procs []int, cfg LoadConfig, gw Config) ([]SweepResult, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var out []SweepResult
	for _, n := range procs {
		if n <= 0 {
			return out, fmt.Errorf("gateway: invalid GOMAXPROCS %d", n)
		}
		runtime.GOMAXPROCS(n)
		g := gw
		g.Trace = true // the stage and model tables read the traced stage histograms
		srv, err := New(g)
		if err != nil {
			return out, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return out, err
		}
		c := cfg
		c.Addr = srv.Addr().String()
		rep, runErr := RunLoad(c)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		snap := srv.Snapshot()
		shutErr := srv.Shutdown(ctx)
		cancel()
		if runErr != nil {
			return out, runErr
		}
		if shutErr != nil {
			return out, fmt.Errorf("gateway: shutdown at GOMAXPROCS=%d: %w", n, shutErr)
		}
		out = append(out, SweepResult{Procs: n, Report: rep, Server: snap})
	}
	return out, nil
}

// FormatSweepTable renders the paper-style scaling table: absolute
// throughput per width plus the scaling factor relative to the first row
// (the paper's "performance scalability from one processing unit to two",
// Section 4.2). When the gateway ran in forwarding mode, an upstream
// column appears: the order backend's p50 round-trip latency (the
// device→endpoint hop the end-to-end FR topology adds). When the measurement layer was on, three counter
// columns follow — CPI and BrMPR per width (the paper's Tables 4/6 next
// to its Figures 5/6 throughput) and the GC CPU share; in the
// runtime-only fallback the derived values are model predictions, marked
// * and explained by a footer line.
func FormatSweepTable(rows []SweepResult) string {
	forwarding, counters := false, false
	for _, r := range rows {
		if len(r.Server.Upstream) > 0 {
			forwarding = true
		}
		if r.Server.Counters != nil {
			counters = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %9s %9s %9s %9s %8s",
		"GOMAXPROCS", "msgs/s", "Mbps", "p50(us)", "p99(us)", "shed", "scaling")
	if forwarding {
		fmt.Fprintf(&b, " %10s", "up-p50(us)")
	}
	if counters {
		fmt.Fprintf(&b, " %8s %8s %6s", "cpi", "brmpr%", "gc%")
	}
	b.WriteByte('\n')
	var base float64
	fallback := ""
	for _, r := range rows {
		if base == 0 {
			base = r.Report.MsgsPerSec
		}
		scaling := 0.0
		if base > 0 {
			scaling = r.Report.MsgsPerSec / base
		}
		fmt.Fprintf(&b, "%-10d %10.0f %9.1f %9d %9d %9d %8.2f",
			r.Procs, r.Report.MsgsPerSec, r.Report.Mbps,
			r.Report.Latency.P50US, r.Report.Latency.P99US,
			r.Report.Shed, scaling)
		if forwarding {
			var upP50 uint64
			if o, ok := r.Server.Upstream["order"]; ok {
				upP50 = o.Latency.P50US
			}
			fmt.Fprintf(&b, " %10d", upP50)
		}
		if counters {
			if c := r.Server.Counters; c != nil {
				mark := ""
				if c.DerivedSource == "model" {
					mark = "*"
					if fallback == "" {
						fallback = c.Notice
					}
				}
				fmt.Fprintf(&b, " %8s %8s %6.1f",
					fmt.Sprintf("%.2f%s", c.Derived.CPI, mark),
					fmt.Sprintf("%.2f%s", c.Derived.BrMPR, mark),
					100*c.Runtime.GCCPUFraction)
			} else {
				fmt.Fprintf(&b, " %8s %8s %6s", "-", "-", "-")
			}
		}
		b.WriteByte('\n')
	}
	if fallback != "" {
		fmt.Fprintf(&b, "* model prediction — %s\n", fallback)
	}
	return b.String()
}

// FormatStageTable renders the sweep's per-stage latency breakdown: for
// each width and each use case that traced requests, the sampled
// p50/p99 of every pipeline stage (read→parse→process→forward→write,
// microseconds). This is the live analogue of the paper's per-phase
// profile next to its scaling figures — it shows *where* the added width
// went (process time falling under contention, parse staying flat, ...).
// Empty when no row carried stage traces.
func FormatStageTable(rows []SweepResult) string {
	if !hasStages(rows) {
		return ""
	}
	stages := dtrace.StageNames()
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-7s", "GOMAXPROCS", "usecase")
	for _, st := range stages {
		fmt.Fprintf(&b, " %13s", st+" p50/p99")
	}
	b.WriteString("  (us)\n")
	for _, r := range rows {
		// Rows in pipeline-enum order (the control-plane GET row last) so
		// the table is stable across runs.
		for slot := 0; slot < numTraceSlots; slot++ {
			uc := traceSlotName(slot)
			row, ok := r.Server.Stages[uc]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-10d %-7s", r.Procs, uc)
			for _, st := range stages {
				s, ok := row[st]
				if !ok || s.Count == 0 {
					fmt.Fprintf(&b, " %13s", "-")
					continue
				}
				fmt.Fprintf(&b, " %13s", fmt.Sprintf("%d/%d", s.P50US, s.P99US))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// hasStages reports whether any sweep row carried stage traces.
func hasStages(rows []SweepResult) bool {
	return slices.ContainsFunc(rows, func(r SweepResult) bool { return len(r.Server.Stages) > 0 })
}

// FormatModelTable renders the analytic capacity model next to the
// measured sweep — per width, the model is seeded with that row's own
// traced stage demands and solved at the row's offered load, so each
// line carries the model's throughput and p99 error at that load point
// (the live half of the paper's Figures 5/6 against the analytic half).
// Empty when no row carries stage traces.
func FormatModelTable(rows []SweepResult, targetP99 time.Duration) string {
	if !hasStages(rows) {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %7s %9s %9s %7s %12s\n",
		"GOMAXPROCS", "offered/s", "meas/s", "pred/s", "err%", "meas-p99", "pred-p99", "err%", "admissible/s")
	for _, r := range rows {
		d := r.Server.Stages.Demands()
		if d.WorkerDemand() <= 0 {
			fmt.Fprintf(&b, "%-10d %10s (no stage traces)\n", r.Procs, "-")
			continue
		}
		m := capacity.GatewayModel(d, capacity.GatewayTopology{Workers: r.Procs})
		offered := r.Report.MsgsPerSec
		if r.Report.DurationSec > 0 {
			offered = float64(r.Report.Sent) / r.Report.DurationSec
		}
		p := m.Predict(offered)
		tputErr := capacity.ErrPct(p.ThroughputPerSec, r.Report.MsgsPerSec)
		p99Err := capacity.ErrPct(p.P99US, float64(r.Report.Latency.P99US))
		adm := m.MaxLoadForP99(float64(targetP99.Microseconds()))
		fmt.Fprintf(&b, "%-10d %10.0f %10.0f %10.0f %7.1f %9d %9.0f %7.1f %12.0f\n",
			r.Procs, offered, r.Report.MsgsPerSec, p.ThroughputPerSec, tputErr,
			r.Report.Latency.P99US, p.P99US, p99Err, adm)
	}
	fmt.Fprintf(&b, "model seeded from each row's traced stage demands; admissible/s = highest load with predicted p99 <= %v\n", targetP99)
	return b.String()
}
