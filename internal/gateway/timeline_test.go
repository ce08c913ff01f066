package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hwcount"
	"repro/internal/session"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// fetchJSON GETs target from the gateway and decodes the JSON body into v.
func fetchJSON(t *testing.T, addr, target string, v any) int {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do([]byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: x\r\n\r\n", target)), 5*time.Second)
	if err != nil {
		t.Fatalf("GET %s: %v", target, err)
	}
	if resp.Status == 200 {
		if err := json.Unmarshal(resp.Body, v); err != nil {
			t.Fatalf("GET %s: body not JSON: %v\n%s", target, err, resp.Body)
		}
	}
	return resp.Status
}

// TestTimelineEndpoint is the sampling session's acceptance path, run in
// both operating modes: whatever the host grants (hw where perf exists,
// the runtime-only fallback elsewhere) and the env-forced fallback. In
// either mode /timeline must return >= 2 samples whose per-CPU derived
// blocks are populated and labeled with their source.
func TestTimelineEndpoint(t *testing.T) {
	modes := []struct {
		name  string
		force bool
	}{{"host-mode", false}, {"forced-fallback", true}}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			if m.force {
				t.Setenv(ForceRuntimeOnlyEnv, "1")
			} else if os.Getenv(ForceRuntimeOnlyEnv) != "" {
				t.Skipf("%s set in environment", ForceRuntimeOnlyEnv)
			}
			srv := startServer(t, Config{
				UseCase:        workload.CBR,
				Timeline:       true,
				SampleInterval: 10 * time.Millisecond,
			})
			addr := srv.Addr().String()
			if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.CBR, Conns: 2, Messages: 60}); err != nil {
				t.Fatal(err)
			}
			// Let the 10ms sampler tick a few times past the load.
			deadline := time.Now().Add(2 * time.Second)
			var tr TimelineResponse
			for {
				if st := fetchJSON(t, addr, "/timeline", &tr); st != 200 {
					t.Fatalf("GET /timeline status %d", st)
				}
				if tr.SamplesReturned >= 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("timeline never reached 2 samples: %+v", tr)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if tr.IntervalMS != 10 {
				t.Fatalf("interval_ms=%v, want 10", tr.IntervalMS)
			}
			var sawMsgs bool
			for _, s := range tr.Samples {
				if s.DerivedSource == "" || s.CPI <= 0 {
					t.Fatalf("sample missing derived metrics: %+v", s)
				}
				if m.force && s.DerivedSource != "model" {
					t.Fatalf("forced fallback sample labeled %q, want model", s.DerivedSource)
				}
				// The model is a constant: even the first window carries it.
				if m.force && s.CacheMPI <= 0 {
					t.Fatalf("forced fallback sample with no model cache-MPI: %+v", s)
				}
				if len(s.CPUs) != runtime.NumCPU() {
					t.Fatalf("sample has %d CPU entries, want %d: %+v", len(s.CPUs), runtime.NumCPU(), s)
				}
				if s.GOMAXPROCS != runtime.GOMAXPROCS(0) {
					t.Fatalf("sample gomaxprocs %d, want %d", s.GOMAXPROCS, runtime.GOMAXPROCS(0))
				}
				for _, c := range s.CPUs {
					if c.DerivedSource == "" || c.CPI <= 0 {
						t.Fatalf("CPU entry missing derived metrics: %+v", c)
					}
					if c.DerivedSource == "model" && c.CacheMPI <= 0 {
						t.Fatalf("model-sourced CPU entry with no cache-MPI: %+v", c)
					}
				}
				if s.Messages > 0 {
					sawMsgs = true
				}
			}
			if !sawMsgs {
				t.Fatalf("no sample recorded message throughput: %+v", tr.Samples)
			}

			// ?last=N bounds the response; bad N is rejected.
			if st := fetchJSON(t, addr, "/timeline?last=1", &tr); st != 200 || tr.SamplesReturned != 1 {
				t.Fatalf("last=1: status=%d returned=%d", st, tr.SamplesReturned)
			}
			var bad struct{}
			if st := fetchJSON(t, addr, "/timeline?last=x", &bad); st != 404 {
				t.Fatalf("last=x: status=%d, want 404", st)
			}

			// /stats carries the session summary.
			var snap Snapshot
			if st := fetchJSON(t, addr, "/stats", &snap); st != 200 {
				t.Fatalf("GET /stats status %d", st)
			}
			if snap.Timeline == nil || snap.Timeline.SamplesTotal < 2 || snap.Timeline.Last == nil {
				t.Fatalf("stats timeline section missing or empty: %+v", snap.Timeline)
			}

			// The CSV dump carries the same ring.
			var sb strings.Builder
			n, err := srv.WriteTimelineCSV(&sb)
			if err != nil || n < 2 {
				t.Fatalf("WriteTimelineCSV: n=%d err=%v", n, err)
			}
			if !strings.HasPrefix(sb.String(), "t_ms,") {
				t.Fatalf("CSV missing header:\n%s", sb.String()[:80])
			}
		})
	}
}

// TestTimelineDisabled404 keeps the endpoint opt-in: without
// Config.Timeline, /timeline is a 404 and /stats has no timeline section.
func TestTimelineDisabled404(t *testing.T) {
	srv := startServer(t, Config{})
	var v struct{}
	if st := fetchJSON(t, srv.Addr().String(), "/timeline", &v); st != 404 {
		t.Fatalf("status=%d, want 404", st)
	}
	if snap := srv.Snapshot(); snap.Timeline != nil {
		t.Fatalf("timeline section present without Config.Timeline: %+v", snap.Timeline)
	}
	if _, err := srv.WriteTimelineCSV(&strings.Builder{}); err == nil {
		t.Fatal("WriteTimelineCSV succeeded without a session")
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

	if _, err := RunLoad(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.CBR, Conns: 2, Messages: 30}); err != nil {
		t.Fatal(err)
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

// countFDs reports the process's open descriptor count where /proc
// exposes it.
func countFDs() (int, bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	return len(ents), true
}

// TestServerShutdownLeavesNoGoroutineOrFD is the leak test proper: one
// full cycle with every background subsystem on — counters, a sampling
// session, tracing, forwarding to two in-process backends — driven by
// pipelined load that overruns the admission bound, must leave the
// process at its goroutine and descriptor baseline once the gateway is
// shut down and the backends closed.
func TestServerShutdownLeavesNoGoroutineOrFD(t *testing.T) {
	_, haveFDs := countFDs()
	cycle := func() (shed uint64) {
		order := startBackend(t, upstream.BackendConfig{Name: "order"})
		errBE := startBackend(t, upstream.BackendConfig{Name: "error"})
		srv, err := New(Config{
			Timeline:       true,
			SampleInterval: 5 * time.Millisecond,
			Trace:          true,
			MaxInflight:    int64(runtime.GOMAXPROCS(0)) + 1,
			ProcessDelay:   time.Millisecond,
			Upstream:       upstream.Config{Order: order.Addr().String(), Error: errBE.Addr().String()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		// Twice the bound in connections, each holding at most one
		// message in flight, so the bound is overrun on any host.
		conns := 2 * (runtime.GOMAXPROCS(0) + 1)
		got := pipelined(t, srv.Addr().String(), conns, 4, 5, []workload.UseCase{workload.CBR, workload.FR})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		order.Close()
		errBE.Close()
		snap := srv.Metrics.Snapshot()
		if snap.Messages+snap.Shed != got.sent {
			t.Fatalf("answered %d + shed %d != sent %d", snap.Messages, snap.Shed, got.sent)
		}
		return snap.Shed
	}
	// One warm-up cycle so lazily created runtime state (the netpoller's
	// fds) exists before the baseline is taken.
	cycle()
	baseGoroutines := runtime.NumGoroutine()
	baseFDs, _ := countFDs()
	if shed := cycle(); shed == 0 {
		t.Fatal("no request was shed — the cycle must cover the shed path")
	}
	waitFor(t, "goroutines to return to the baseline", func() bool {
		return runtime.NumGoroutine() <= baseGoroutines
	})
	if haveFDs {
		waitFor(t, "descriptors to return to the baseline", func() bool {
			n, _ := countFDs()
			return n <= baseFDs
		})
	}
}

// TestStageTracing exercises the stage histograms fed from the traced
// spans: the /stats stages section must carry per-use-case
// read/parse/process/write populations, and the per-use-case
// latency histograms must split accordingly.
func TestStageTracing(t *testing.T) {
	srv := startServer(t, Config{UseCase: workload.CBR, Trace: true})
	addr := srv.Addr().String()
	if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.CBR, Conns: 2, Messages: 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.SV, Conns: 2, Messages: 30}); err != nil {
		t.Fatal(err)
	}

	waitTraced(t, srv, 70)
	snap := srv.Snapshot()
	if snap.Stages == nil {
		t.Fatal("no stages section with Trace on")
	}
	for _, uc := range []string{"CBR", "SV"} {
		st, ok := snap.Stages[uc]
		if !ok {
			t.Fatalf("stages missing %s: %v", uc, snap.Stages)
		}
		for _, name := range []string{"read", "parse", "process", "write"} {
			h, ok := st[name]
			if !ok || h.Count == 0 {
				t.Fatalf("%s stage %q empty: %+v", uc, name, st)
			}
		}
		if _, ok := st["forward"]; ok {
			t.Fatalf("%s traced a forward stage with no backends", uc)
		}
		lh, ok := snap.LatencyByUseCase[uc]
		if !ok || lh.Count == 0 {
			t.Fatalf("latency_by_usecase missing %s: %+v", uc, snap.LatencyByUseCase)
		}
	}
	if snap.LatencyByUseCase["CBR"].Count != 40 || snap.LatencyByUseCase["SV"].Count != 30 {
		t.Fatalf("per-use-case latency counts: %+v", snap.LatencyByUseCase)
	}
}

// TestTracingOffByDefault keeps the trace opt-in and the sampler honest:
// without Trace there is no stages section.
func TestTracingOffByDefault(t *testing.T) {
	srv := startServer(t, Config{})
	if _, err := RunLoad(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.CBR, Conns: 1, Messages: 10}); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Snapshot(); snap.Stages != nil {
		t.Fatalf("stages section present without Trace: %+v", snap.Stages)
	}
}

// TestObservabilityConfigValidation rejects nonsensical sampling knobs
// with errors instead of silently running a broken session.
func TestObservabilityConfigValidation(t *testing.T) {
	bad := []Config{
		{SampleInterval: -time.Second},
		{SampleCapacity: -1},
		{TraceKeepEvery: -2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) accepted invalid config", cfg)
		}
	}
	// Timeline implies the measurement layer.
	srv := startServer(t, Config{Timeline: true, SampleInterval: 10 * time.Millisecond})
	if mode, _ := srv.CountersMode(); mode == "off" {
		t.Fatal("Timeline did not imply Counters")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the flush goroutine writes
// while the test reads progress.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTimelineFlush pins continuous persistence: with a flush target
// configured, samples land on the artifact incrementally while the
// server is still serving (crash safety — no dump-at-exit required),
// each sample exactly once, and shutdown appends the ring's tail. The
// artifact must round-trip through session.ReadCSV with strictly
// increasing timestamps (duplicate-free).
func TestTimelineFlush(t *testing.T) {
	t.Setenv(ForceRuntimeOnlyEnv, "1") // deterministic in either world
	var buf syncBuffer
	srv := startServer(t, Config{
		UseCase:               workload.CBR,
		SampleInterval:        5 * time.Millisecond,
		TimelineFlush:         session.NewAppender(&buf, true),
		TimelineFlushInterval: 10 * time.Millisecond,
	})
	if srv.timeline == nil {
		t.Fatal("TimelineFlush did not imply Timeline")
	}
	addr := srv.Addr().String()
	if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.CBR, Conns: 2, Messages: 40}); err != nil {
		t.Fatal(err)
	}
	// Incremental: rows appear while the server is live.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := strings.Count(buf.String(), "\n"); n >= 3 { // header + 2 rows
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no incremental flush after 2s; artifact:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// On-demand flush (the SIGUSR1 path) interleaves safely with the
	// periodic flusher and never duplicates samples.
	if _, err := srv.FlushTimeline(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	total := srv.timeline.sampler.Total()
	rows, err := session.ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("flushed artifact unreadable: %v\nartifact:\n%s", err, buf.String())
	}
	if uint64(len(rows)) != total {
		t.Fatalf("artifact has %d rows, session recorded %d samples", len(rows), total)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TMS < rows[i-1].TMS {
			t.Fatalf("rows out of order at %d: %d then %d", i, rows[i-1].TMS, rows[i].TMS)
		}
	}
	if strings.Count(buf.String(), "t_ms,") != 1 {
		t.Fatalf("header written more than once:\n%s", buf.String())
	}
}

// TestTimelineFlushValidation: a negative flush interval is rejected;
// a flush target without an interval stays inert (no session implied).
func TestTimelineFlushValidation(t *testing.T) {
	if _, err := New(Config{TimelineFlushInterval: -time.Second}); err == nil {
		t.Fatal("negative flush interval accepted")
	}
	srv, err := New(Config{TimelineFlush: session.NewAppender(&bytes.Buffer{}, true)})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.Timeline {
		t.Fatal("flush target without interval implied a session")
	}
}
