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
// liveConfig (sized and calibrated exactly as the matrix is) and one live
// campaign phase of length dur, prints the gateway's window over the
// phase against the prediction, and writes the live/sim ratios as a
// calibration artifact to calOut when set. Phases without perf events
// (the runtime-only fallback) record identity scales: the model cannot
// calibrate itself.
func runLive(stdout, stderr io.Writer, opts harness.AONOpts, cal *harness.Calibration, dur time.Duration, calOut string) error {
	out := &harness.Calibration{Config: string(liveConfig), Entries: map[string]harness.CalibrationEntry{}}
	fmt.Fprintf(stdout, "simulated %s prediction vs live campaign phase (%v reads, %v load)\n", liveConfig, liveInterval, dur)
	fmt.Fprintf(stdout, "%-4s %8s | %8s %8s %8s %8s | %10s %9s | %s\n",
		"uc", "samples", "sim-cpi", "live-cpi", "scale", "mpi-scl", "live-mps", "p50(us)", "live source")
	for _, uc := range workload.AllUseCases {
		e, err := liveEntry(uc, opts, cal, dur)
		if err != nil {
			return err
		}
		out.Entries[uc.String()] = e
		fmt.Fprintf(stdout, "%-4s %8d | %8.2f %8.2f %8.2f %8.2f | %10.0f %9.0f | %s\n",
			uc, e.Samples, e.SimCPI, e.LiveCPI, e.CPIScale, e.MPIScale, e.LiveMsgsPerSec, e.LiveP50US, e.LiveSource)
	}
	fmt.Fprintln(stdout, "scale = live/sim ratio the artifact stores; 1.00 on model-sourced sessions.")
	if out.Identity() {
		fmt.Fprintln(stderr, "aonsim: sessions ran without live perf events; every scale is identity")
	}
	if calOut == "" {
		return nil
	}
	if err := out.WriteFile(calOut); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "aonsim: wrote calibration artifact to %s\n", calOut)
	return nil
}

// liveEntry simulates uc, runs its live phase against a fresh in-process
// gateway and returns the calibration entry.
func liveEntry(uc workload.UseCase, opts harness.AONOpts, cal *harness.Calibration, dur time.Duration) (harness.CalibrationEntry, error) {
	sim, err := harness.RunAON(liveConfig, uc, opts)
	if err != nil {
		return harness.CalibrationEntry{}, fmt.Errorf("simulate %s: %w", uc, err)
	}
	srv, err := gateway.New(gateway.Config{UseCase: uc, Counters: true})
	if err != nil {
		return harness.CalibrationEntry{}, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return harness.CalibrationEntry{}, err
	}
	res, runErr := livePhase(srv.Addr().String(), uc, dur)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	shutErr := srv.Shutdown(ctx)
	cancel()
	if err := errors.Join(runErr, shutErr); err != nil {
		return harness.CalibrationEntry{}, fmt.Errorf("live %s: %w", uc, err)
	}
	return calibrationEntry(cal.Apply(uc, sim.Metrics), res), nil
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
	return campaign.Run(spec, campaign.Options{Addr: addr})
}

// calibrationEntry holds sim against the gateway's window over the live
// phase: CPI, cache-MPI and BrMPR from the count deltas between the
// phase's start and end reads, and the phase row's ok/s and p50. Samples
// is the number of recorder rows behind that window.
func calibrationEntry(sim counters.Metrics, res *campaign.Result) harness.CalibrationEntry {
	p := &res.Phases[0]
	var w campaign.NodeWindow
	for _, n := range p.Nodes {
		if n.Role == campaign.RoleGateway {
			w = n
		}
	}
	e := harness.NewCalibrationEntry(sim, w.CPI, w.CacheMPI, w.BrMPR, res.Samples, w.DerivedSource)
	e.LiveP50US = float64(p.LatencyP50US)
	e.LiveMsgsPerSec = p.OKPerSec
	return e
}
