package gateway

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/hwcount"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// TestModelDerivedPinned recomputes the runtime-only fallback's constants
// from the harness: CPI, branch frequency and BrMPR from the paper's 2CPm
// tables, and cache-MPI from a short 2CPm model run (20 warm-up and 60
// measured messages, a window of 32) of the use case.
func TestModelDerivedPinned(t *testing.T) {
	for _, uc := range []workload.UseCase{workload.FR, workload.CBR, workload.SV} {
		want := hwcount.Derived{
			CPI:        harness.PaperCPI[uc][machine.TwoCPm],
			BranchFreq: harness.PaperBranchFreq[uc][machine.TwoCPm],
			BrMPR:      harness.PaperBrMPR[uc][machine.TwoCPm],
			CacheMPI:   modelDerived(uc).CacheMPI,
		}
		if got := modelDerived(uc); got != want {
			t.Errorf("%v: pinned %+v, paper tables give %+v", uc, got, want)
		}
		r, err := harness.RunAON(machine.TwoCPm, uc, harness.AONOpts{WarmupMsgs: 20, MeasureMsgs: 60, Window: 32})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := modelDerived(uc).CacheMPI, r.Metrics.L2MPI; got != want {
			t.Errorf("%v: pinned cache-MPI %v, model predicts %v", uc, got, want)
		}
	}
	for _, uc := range []workload.UseCase{workload.DPI, workload.AUTH, workload.XJ} {
		if got, want := modelDerived(uc), modelDerived(workload.CBR); got != want {
			t.Errorf("%v: %+v, want CBR's %+v", uc, got, want)
		}
	}
}

// TestStatsCountersSection is the measurement layer's acceptance path:
// with Config.Counters on, /stats must carry a counters section with a
// positive measurement window, sane derived metrics (CPI > 0 in either
// mode — measured in "hw" mode, model-predicted in the runtime-only
// fallback), and live runtime observations. The test passes identically
// on perf-capable and perf-denied hosts; which mode ran is logged.
func TestStatsCountersSection(t *testing.T) {
	srv := startServer(t, Config{UseCase: workload.CBR, Counters: true})
	addr := srv.Addr().String()
	if rep := drive(LoadConfig{Addr: addr, UseCase: workload.CBR}, 2, 60); rep.OK != 60 {
		t.Fatalf("ok=%d of 60 (%+v)", rep.OK, rep)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do([]byte("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"), 5*time.Second)
	if err != nil || resp.Status != 200 {
		t.Fatalf("GET /stats: resp=%+v err=%v", resp, err)
	}
	var snap Snapshot
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		t.Fatalf("stats body not JSON: %v\n%s", err, resp.Body)
	}
	c := snap.Counters
	if c == nil {
		t.Fatalf("stats missing counters section:\n%s", resp.Body)
	}
	t.Logf("counters mode=%s notice=%q cpi=%.2f", c.Mode, c.Notice, c.Derived.CPI)

	switch c.Mode {
	case "hw":
		if c.DerivedSource != "hw" {
			t.Fatalf("hw mode with derived_source=%q", c.DerivedSource)
		}
		if c.Events["instructions"] == 0 && c.Events["cpu-cycles"] == 0 {
			t.Fatalf("hw mode with empty event window: %v", c.Events)
		}
	case "runtime-only":
		if c.DerivedSource != "model" {
			t.Fatalf("fallback mode with derived_source=%q", c.DerivedSource)
		}
		if c.Notice == "" || !strings.Contains(c.Notice, "runtime-metrics-only") {
			t.Fatalf("fallback mode must carry the one-line notice, got %q", c.Notice)
		}
	default:
		t.Fatalf("unknown counters mode %q", c.Mode)
	}
	if c.Derived.CPI <= 0 {
		t.Fatalf("CPI=%v, want > 0 (mode %s)", c.Derived.CPI, c.Mode)
	}
	if c.WindowSec <= 0 {
		t.Fatalf("window_sec=%v, want > 0", c.WindowSec)
	}
	if c.Runtime.Goroutines <= 0 || c.Runtime.GOMAXPROCS <= 0 {
		t.Fatalf("runtime section not populated: %+v", c.Runtime)
	}

	// /stats is a pure read: a second scrape is cumulative — its span and
	// every event count, process-wide and per CPU, are non-decreasing —
	// not a fresh window that the first read closed.
	resp, err = cl.Do([]byte("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"), 5*time.Second)
	if err != nil || resp.Status != 200 {
		t.Fatalf("second /stats: resp=%+v err=%v", resp, err)
	}
	var snap2 Snapshot
	if err := json.Unmarshal(resp.Body, &snap2); err != nil {
		t.Fatal(err)
	}
	c2 := snap2.Counters
	if c2 == nil || c2.WindowSec < c.WindowSec {
		t.Fatalf("second read spans %v s, less than the first's %v: a read closed a window", c2.WindowSec, c.WindowSec)
	}
	for name, n := range c.Events {
		if c2.Events[name] < n {
			t.Fatalf("event %s fell from %d to %d between reads", name, n, c2.Events[name])
		}
	}
	if len(c2.CPUs) != len(c.CPUs) {
		t.Fatalf("CPU entries %d then %d", len(c.CPUs), len(c2.CPUs))
	}
	for i, cpu := range c.CPUs {
		for name, n := range cpu.Events {
			if c2.CPUs[i].Events[name] < n {
				t.Fatalf("CPU %d event %s fell from %d to %d between reads", cpu.CPU, name, n, c2.CPUs[i].Events[name])
			}
		}
	}
}

// TestCountersOffByDefault keeps the measurement layer opt-in: no
// counters section unless Config.Counters asks for it.
func TestCountersOffByDefault(t *testing.T) {
	srv := startServer(t, Config{})
	if snap := srv.Snapshot(); snap.Counters != nil {
		t.Fatalf("counters section present without Config.Counters: %+v", snap.Counters)
	}
	if mode, _ := srv.CountersMode(); mode != "off" {
		t.Fatalf("mode=%q want off", mode)
	}
}

// TestWorkerGroupLifecycle proves the per-CPU measurement teardown:
// the sampler lists one group slot per logical CPU, and after shutdown
// every group it opened is closed (no fd leak). On perf-denied hosts
// every slot is the model-backed placeholder and there is nothing to
// close.
func TestWorkerGroupLifecycle(t *testing.T) {
	srv, err := New(Config{UseCase: workload.CBR, Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cpus := srv.counters.cpus
	if len(cpus) != runtime.NumCPU() {
		t.Fatalf("%d per-CPU slots, want %d", len(cpus), runtime.NumCPU())
	}
	// The slots carry the affinity set's ids, not 0..NumCPU-1.
	for i, id := range hwcount.CPUs() {
		if cpus[i].id != id {
			t.Fatalf("slot %d is CPU %d, want %d from the affinity set", i, cpus[i].id, id)
		}
	}
	opened := 0
	for _, c := range cpus {
		if c.g != nil {
			opened++
		}
	}
	if mode, _ := srv.CountersMode(); mode != "hw" && opened != 0 {
		t.Fatalf("%s mode opened %d per-CPU groups", mode, opened)
	}
	t.Logf("opened %d of %d per-CPU groups", opened, len(cpus))

	if rep := drive(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.CBR}, 2, 30); rep.OK != 30 {
		t.Fatalf("ok=%d of 30 (%+v)", rep.OK, rep)
	}
	if c := srv.Snapshot().Counters; len(c.CPUs) != len(cpus) {
		t.Fatalf("snapshot lists %d CPUs, want %d", len(c.CPUs), len(cpus))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range cpus {
		if c.g == nil {
			continue
		}
		if _, err := c.g.Read(); err == nil {
			t.Fatalf("CPU %d group still open after shutdown", c.id)
		}
	}
}

// TestConcurrentStatsReaders: with no per-reader state left, any number
// of readers may read the counters section at once; each sees its span
// and every event count non-decreasing, however the reads interleave.
// Run with -race.
func TestConcurrentStatsReaders(t *testing.T) {
	srv := startServer(t, Config{UseCase: workload.CBR, Counters: true})
	done := make(chan struct{})
	go func() {
		defer close(done)
		drive(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.CBR}, 2, 200)
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev *CountersSnapshot
			for i := 0; i < 50; i++ {
				c := srv.Snapshot().Counters
				if prev != nil {
					if c.WindowSec < prev.WindowSec {
						t.Errorf("span fell from %v to %v between one reader's reads", prev.WindowSec, c.WindowSec)
						return
					}
					for name, n := range prev.Events {
						if c.Events[name] < n {
							t.Errorf("event %s fell from %d to %d between one reader's reads", name, n, c.Events[name])
							return
						}
					}
				}
				prev = c
			}
		}()
	}
	wg.Wait()
	<-done
}
