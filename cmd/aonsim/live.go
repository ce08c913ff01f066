package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// The live side of -exp live: an in-process gateway on loopback, driven
// by a one-phase constant campaign of liveConns senders whose recorder
// reads the gateway's cumulative /stats every liveInterval.
const (
	liveConfig   = machine.TwoCPm // the 2-core analogue of a 2-CPU host
	liveConns    = 8
	liveInterval = 100 * time.Millisecond
)

// runLive is -exp live: for each of FR/CBR/SV it runs the simulated
// liveConfig (sized exactly as the matrix is) and one live campaign phase
// of length dur, and prints the gateway's window over the phase beside
// the prediction. The simulator's tables are not rescaled by it; to
// compare, divide a live column by its sim column.
func runLive(stdout io.Writer, opts harness.AONOpts, dur time.Duration) error {
	fmt.Fprintf(stdout, "simulated %s prediction vs live campaign phase (%v reads, %v load)\n", liveConfig, liveInterval, dur)
	fmt.Fprintf(stdout, "%-4s %8s | %8s %8s | %9s %9s | %9s %10s | %10s %9s | %s\n",
		"uc", "samples", "sim-cpi", "live-cpi", "sim-l2mpi", "live-mpi", "sim-brmpr", "live-brmpr", "live-mps", "p50(us)", "live source")
	for _, uc := range workload.AllUseCases {
		r, err := liveEntry(uc, opts, dur)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-4s %8d | %8.2f %8.2f | %9.3f %9.3f | %9.2f %10.2f | %10.0f %9.0f | %s\n",
			uc, r.samples, r.sim.CPI, r.liveCPI, r.sim.L2MPI, r.liveMPI, r.sim.BrMPR, r.liveBrMPR, r.okPerSec, r.p50US, r.liveSource)
	}
	fmt.Fprintln(stdout, "l2mpi/mpi: simulated L2 and live cache misses per instruction, %; brmpr: mispredictions per branch, %.")
	return nil
}

// liveEntry simulates uc, runs its live phase against a fresh in-process
// gateway and returns the row.
func liveEntry(uc workload.UseCase, opts harness.AONOpts, dur time.Duration) (liveRow, error) {
	sim, err := harness.RunAON(harness.Cell{Config: liveConfig, UseCase: uc}, opts)
	if err != nil {
		return liveRow{}, fmt.Errorf("simulate %s: %w", uc, err)
	}
	srv, err := gateway.New(gateway.Config{UseCase: uc, Counters: true})
	if err != nil {
		return liveRow{}, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return liveRow{}, err
	}
	res, runErr := livePhase(srv.Addr().String(), uc, dur)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	shutErr := srv.Shutdown(ctx)
	cancel()
	if err := errors.Join(runErr, shutErr); err != nil {
		return liveRow{}, fmt.Errorf("live %s: %w", uc, err)
	}
	return newLiveRow(sim.Metrics, res), nil
}

// livePhase runs uc's live session against the gateway at addr: one
// constant phase of liveConns senders for dur, recorded every
// liveInterval.
func livePhase(addr string, uc workload.UseCase, dur time.Duration) (*campaign.Result, error) {
	spec := &campaign.Spec{
		Name:             "live-" + uc.String(),
		SampleIntervalMS: int(liveInterval / time.Millisecond),
		Phases: []campaign.Phase{{
			Name: uc.String(), Shape: campaign.ShapeConstant, UseCase: uc.String(),
			DurationMS: int(dur / time.Millisecond), Conns: liveConns,
		}},
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return campaign.Run(context.Background(), spec, campaign.Options{Addr: addr})
}

// liveRow is one use case's line of -exp live: the simulated
// liveConfig's counters beside the gateway's window over the live phase.
type liveRow struct {
	sim                         counters.Metrics
	liveCPI, liveMPI, liveBrMPR float64 // CPI, cache-MPI %, BrMPR %
	liveSource                  string  // "hw" or "model"
	samples                     int     // recorder rows behind the window
	okPerSec, p50US             float64 // the phase row's
}

// newLiveRow holds sim against the gateway's window over the live
// phase: CPI, cache-MPI and BrMPR from the count deltas between the
// phase's start and end reads, and the phase row's ok/s and p50.
func newLiveRow(sim counters.Metrics, res *campaign.Result) liveRow {
	p := &res.Phases[0]
	var w campaign.NodeWindow
	for _, n := range p.Nodes {
		if n.Role == campaign.RoleGateway {
			w = n
		}
	}
	return liveRow{
		sim: sim, liveCPI: w.CPI, liveMPI: w.CacheMPI, liveBrMPR: w.BrMPR, liveSource: w.DerivedSource,
		samples: res.Samples, okPerSec: p.OKPerSec, p50US: float64(p.LatencyP50US),
	}
}
