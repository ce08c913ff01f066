package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/perf/machine"
	"repro/internal/session"
	"repro/internal/workload"
)

// The live side of -exp live: an in-process gateway on loopback, driven
// closed-loop by liveConns connections, its cumulative /stats view
// windowed every liveInterval.
const (
	liveConfig   = machine.TwoCPm // the 2-core analogue of a 2-CPU host
	liveConns    = 8
	liveInterval = 100 * time.Millisecond
)

// runLive is -exp live: for each of FR/CBR/SV it runs the simulated
// liveConfig (sized and calibrated exactly as the matrix is) and one live
// sampling session of length dur, prints the session's mean CPI and
// cache-MPI against the prediction, and writes the live/sim ratios as a
// calibration artifact to calOut when set. Sessions without perf events
// (the runtime-only fallback) record identity scales: the model cannot
// calibrate itself.
func runLive(stdout, stderr io.Writer, opts harness.AONOpts, cal *harness.Calibration, dur time.Duration, calOut string) error {
	out := &harness.Calibration{Config: string(liveConfig), Entries: map[string]harness.CalibrationEntry{}}
	fmt.Fprintf(stdout, "simulated %s prediction vs live sampling session (%v interval, %v load)\n", liveConfig, liveInterval, dur)
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

// liveEntry simulates uc, runs its live sampling session and averages
// the session into a calibration entry against the prediction.
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
	// The session: a priming read, one window per liveInterval under
	// load, and a last window closing at the load's end. stop joins the
	// ticker goroutine, so the three never run at once.
	var win session.Windower
	var samples []session.Sample
	sample := func() {
		snap := srv.Snapshot()
		samples = append(samples, win.Window("live", snap.Sample()))
	}
	sample()
	stop := session.Every(liveInterval, sample)
	rep, loadErr := gateway.RunLoad(gateway.LoadConfig{
		Addr: srv.Addr().String(), UseCase: uc, Conns: liveConns, Duration: dur,
	})
	stop()
	sample()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	shutErr := srv.Shutdown(ctx)
	cancel()
	if err := errors.Join(loadErr, shutErr); err != nil {
		return harness.CalibrationEntry{}, fmt.Errorf("live %s: %w", uc, err)
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
		if s.WindowSec == 0 || s.DerivedSource != source || s.CPI <= 0 {
			continue // the priming read closes no window
		}
		cpi += s.CPI
		mpi += s.CacheMPI
		brmpr += s.BrMPR
		n++
	}
	if n > 0 {
		cpi, mpi, brmpr = cpi/float64(n), mpi/float64(n), brmpr/float64(n)
	}
	e := harness.NewCalibrationEntry(cal.Apply(uc, sim.Metrics), cpi, mpi, brmpr, n, source)
	e.LiveP50US = float64(rep.Latency.P50US)
	e.LiveMsgsPerSec = rep.MsgsPerSec
	return e, nil
}
