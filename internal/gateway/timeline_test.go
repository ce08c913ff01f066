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

	"repro/internal/session"
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
// either mode /timeline must return >= 2 samples whose per-worker
// derived blocks are populated and labeled with their source.
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
				Workers:        2,
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
				if len(s.Workers) != 2 {
					t.Fatalf("sample has %d worker entries, want 2: %+v", len(s.Workers), s)
				}
				for _, w := range s.Workers {
					if w.DerivedSource == "" || w.CPI <= 0 {
						t.Fatalf("worker entry missing derived metrics: %+v", w)
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
	srv := startServer(t, Config{Workers: 1})
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

// TestWorkerGroupLifecycle proves the per-worker measurement teardown:
// every registered worker unregisters on exit, every opened per-thread
// event group is closed (no fd leak), and the worker goroutines join.
func TestWorkerGroupLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := New(Config{Workers: 3, UseCase: workload.CBR, Counters: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	hwMode := false
	if mode, _ := srv.CountersMode(); mode == "hw" {
		hwMode = true
	}

	// Workers register as their goroutines come up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, live := srv.counters.workerGroupStats(); live == 3 {
			break
		}
		if time.Now().After(deadline) {
			_, _, live := srv.counters.workerGroupStats()
			t.Fatalf("only %d/3 workers registered", live)
		}
		time.Sleep(time.Millisecond)
	}
	opened, _, _ := srv.counters.workerGroupStats()
	if hwMode && opened != 3 {
		t.Fatalf("hw mode opened %d per-thread groups, want 3", opened)
	}
	if fds, ok := countFDs(); ok && hwMode && fds == 0 {
		t.Fatal("hw mode but no open fds counted") // sanity on the counter itself
	}

	if _, err := RunLoad(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.CBR, Conns: 2, Messages: 30}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	opened, closed, live := srv.counters.workerGroupStats()
	if live != 0 {
		t.Fatalf("%d workers still registered after shutdown", live)
	}
	if opened != closed {
		t.Fatalf("per-thread groups leaked: opened=%d closed=%d", opened, closed)
	}

	// The pool goroutines joined (Shutdown waits on workerWG); allow the
	// runtime a moment to retire them before comparing.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
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

// TestWorkerGroupFDsReleased is the fd-leak test proper: across a full
// start/load/shutdown cycle with the measurement layer on, the process's
// descriptor count returns to its baseline. Only meaningful where /proc
// exists; the group accounting in TestWorkerGroupLifecycle covers the
// rest.
func TestWorkerGroupFDsReleased(t *testing.T) {
	if _, ok := countFDs(); !ok {
		t.Skip("no /proc/self/fd on this platform")
	}
	// One warmup cycle so lazily-created runtime fds (epoll, etc.) exist
	// before the baseline is taken.
	cycle := func() {
		srv, err := New(Config{Workers: 3, UseCase: workload.CBR, Counters: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if _, err := RunLoad(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.CBR, Conns: 2, Messages: 20}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	base, _ := countFDs()
	cycle()
	after, _ := countFDs()
	if after > base {
		t.Fatalf("fd count grew across a gateway cycle: %d -> %d", base, after)
	}
}

// TestStageTracing exercises the stage histograms fed from the traced
// spans: the /stats stages section must carry per-use-case
// read/queue/parse/process/write populations, and the per-use-case
// latency histograms must split accordingly.
func TestStageTracing(t *testing.T) {
	srv := startServer(t, Config{Workers: 2, UseCase: workload.CBR, Trace: true})
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
		for _, name := range []string{"read", "queue", "parse", "process", "write"} {
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

	// The stage table renderer picks the traces up from sweep rows.
	table := FormatStageTable([]SweepResult{{Procs: 2, Server: snap}})
	if !strings.Contains(table, "CBR") || !strings.Contains(table, "read p50/p99") {
		t.Fatalf("stage table missing traced rows:\n%s", table)
	}
}

// TestTracingOffByDefault keeps the trace opt-in and the sampler honest:
// without Trace there is no stages section.
func TestTracingOffByDefault(t *testing.T) {
	srv := startServer(t, Config{Workers: 1})
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
	srv := startServer(t, Config{Workers: 1, Timeline: true, SampleInterval: 10 * time.Millisecond})
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
		Workers:               2,
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
