// Command aongate serves the live AON gateway: a real TCP/HTTP server
// running the paper's FR/CBR/SV pipelines (plus the DPI/AUTH extensions)
// on live bytes — each connection's goroutine processes its own
// messages, GOMAXPROCS at a time — with a 503 in-flight bound and a
// /stats endpoint.
//
// Usage:
//
//	aongate -addr :8080                      # serve, default use case FR
//	aongate -usecase SV -max-inflight 10     # shed past 10 in-flight messages
//	aongate -order host1:9081 -error host1:9082  # forward to real backends
//	curl http://localhost:8080/stats         # live metrics JSON
//
// Request paths select the use case per message (/service/FR, /service/CBR,
// /service/SV, /service/DPI, /service/AUTH); other paths run -usecase.
//
// With -order/-error set (cmd/aonback instances, local or remote), the
// gateway is the paper's true forwarding proxy: pipeline outcomes are
// relayed to the routed backend over pooled keep-alive connections with
// retries, background health probing, and 502/504 mapping; /stats gains
// a per-backend "upstream" section. Without them it answers in place.
//
// With -counters, /stats gains a "counters" section: windowed
// perf_event_open deltas and derived CPI/cache-MPI/BrMPR (the paper's
// VTune metrics on live hardware) including a per-CPU skew view (one
// event group per logical CPU), degrading to runtime-metrics-only with a
// startup notice where perf events are denied.
//
// With -timeline (implies -counters), the gateway runs a VTune-style
// sampling session: every -sample-interval it snapshots counter windows,
// throughput deltas, latency percentiles, runtime and upstream gauges into a
// bounded ring served on GET /timeline?last=N. SIGUSR1 dumps the ring as
// CSV to -timeline-out without stopping the server; shutdown writes the
// final ring there too. With -timeline-flush-interval (implies -timeline),
// -timeline-out becomes an append-only CSV instead: new samples are
// appended incrementally each interval (header written once, exactly-once
// rows), so a crash loses at most one interval and long sessions are not
// bounded by the ring — SIGUSR1 then forces an immediate flush rather
// than a whole-ring dump.
//
// With -adaptive (implies -trace), an analytic M/M/c capacity controller
// (internal/capacity) runs beside the gateway: every -adapt-interval it
// reads the traced stage demands and the last window's load, solves the
// queueing model, and moves the 503 admission bound toward -target-p99
// within [GOMAXPROCS+1, -max-inflight] — falling back to -max-inflight
// when observations go stale or the model diverges from measurement. /stats gains a "capacity" section with the decision,
// predicted-vs-observed error, and per-use-case model error.
//
// With -trace, the gateway runs the tracing plane (internal/dtrace),
// its one request clock: every request records real spans around
// read/parse/process/forward/write, adopts the client's
// X-AON-Trace ID when present (aonload -trace-client, aoncamp
// trace_every), and propagates context on upstream forwards so aonback
// records a joined server-side span. Every finished request's span
// durations are aggregated into per-use-case per-stage histograms, the
// /stats "stages" section; completed traces are tail-sampled
// into a ring served on GET /traces?last=N — shed/idle-reaped/5xx and
// slow requests always kept, 1-in—trace-keep-every otherwise. Tail
// outcomes additionally emit a rate-limited structured slow-request
// line (trace ID, use case, outcome, per-stage breakdown) on stderr.
// cmd/aontrace assembles /traces output across nodes into critical-path
// reports; cmd/aonfleet scrapes it into a fleet-wide traces.jsonl.
//
// -pprof serves net/http/pprof on a separate listener (off by default):
// aongate -pprof localhost:6060, then `go tool pprof
// http://localhost:6060/debug/pprof/profile`.
//
// SIGINT/SIGTERM drains gracefully (bounded by -drain) and prints the
// final metrics snapshot as JSON on stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (served only via -pprof)
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/hwcount"
	"repro/internal/session"
	"repro/internal/upstream"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	ucName := flag.String("usecase", "FR", "default use case: FR, CBR, SV, DPI, AUTH")
	maxBody := flag.Int("max-body", 1<<20, "max POST body bytes")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	idle := flag.Duration("idle-timeout", 0, "client connection read deadline (0 = 60s default, negative disables)")
	order := flag.String("order", "", "order backend address (enables upstream forwarding)")
	errAddr := flag.String("error", "", "error backend address (enables upstream forwarding)")
	upRetries := flag.Int("up-retries", 0, "extra upstream tries on dial/IO failure (0 = default 2)")
	upTimeout := flag.Duration("up-timeout", 0, "per-try upstream deadline (0 = default 5s)")
	upIdle := flag.Int("up-idle", 0, "max idle keep-alive conns per backend (0 = default 8)")
	upMinIdle := flag.Int("up-min-idle", 0, "pre-warm each backend pool to this many idle conns (0 = off)")
	upLifetime := flag.Duration("up-max-lifetime", 0, "evict pooled backend conns older than this (0 = no limit)")
	hwCounters := flag.Bool("counters", false, "enable the live measurement layer: perf_event_open counters on /stats (falls back to runtime metrics where perf is denied)")
	timeline := flag.Bool("timeline", false, "run a sampling session: fixed-interval samples on GET /timeline (implies -counters)")
	sampleInterval := flag.Duration("sample-interval", 100*time.Millisecond, "timeline sampling period (must be positive)")
	sampleCap := flag.Int("sample-cap", 0, "timeline ring capacity in samples (0 = 600)")
	timelineOut := flag.String("timeline-out", "aon-timeline.csv", "CSV path for timeline dumps (SIGUSR1 and shutdown)")
	timelineFlush := flag.Duration("timeline-flush-interval", 0, "append new timeline samples to -timeline-out every interval (implies -timeline; crash-safe, header written once; 0 = whole-ring dumps on SIGUSR1/shutdown only)")
	adaptive := flag.Bool("adaptive", false, "run the capacity controller: the M/M/c model moves the 503 admission bound from live observations (implies -trace)")
	targetP99 := flag.Duration("target-p99", 0, "adaptive mode: p99 latency bound the controller sizes for (0 = default 100ms)")
	adaptInterval := flag.Duration("adapt-interval", 0, "adaptive mode: control-loop period (0 = default 500ms)")
	maxInflight := flag.Int64("max-inflight", 0, "admission bound: shed with 503 past this many in-flight messages; the adaptive ceiling (0 = 5x GOMAXPROCS)")
	trace := flag.Bool("trace", false, "run the tracing plane: per-request stage spans aggregated into the /stats stages section, X-AON-Trace adoption/propagation, tail-sampled ring on GET /traces, slow-request log on stderr")
	traceNode := flag.String("trace-node", "", "node name stamped on this gateway's spans (default gateway; aonfleet passes role/id)")
	traceSlowOver := flag.Duration("trace-slow-over", 0, "tail sampling: always keep traces slower than this (0 = default 50ms, negative disables the slow rule)")
	traceKeepEvery := flag.Int("trace-keep-every", 0, "tail sampling: keep 1 in N ordinary traces (0 = default 64)")
	traceCap := flag.Int("trace-cap", 0, "kept-trace ring capacity (0 = default 256)")
	slowLogPerSec := flag.Int("slow-log-rate", 0, "slow-request log lines per second before suppression (0 = default 10)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	flag.Parse()

	uc, err := workload.ParseUseCase(*ucName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aongate:", err)
		os.Exit(2)
	}
	if *sampleInterval <= 0 {
		fmt.Fprintf(os.Stderr, "aongate: -sample-interval must be positive, got %v\n", *sampleInterval)
		os.Exit(2)
	}
	if *timelineFlush < 0 {
		fmt.Fprintf(os.Stderr, "aongate: -timeline-flush-interval must be >= 0, got %v\n", *timelineFlush)
		os.Exit(2)
	}
	if (*hwCounters || *timeline || *timelineFlush > 0) && !hwcount.Supported() {
		fmt.Fprintln(os.Stderr, "aongate: -counters/-timeline need perf events, which this OS does not support")
		os.Exit(2)
	}

	// Incremental flush mode: -timeline-out becomes an append-only CSV
	// that survives a crash — each interval writes only the samples the
	// ring gained since the last flush, and the header is written once
	// (only when the file starts empty, so restarts keep appending).
	var flushFile *os.File
	var flushDst *session.Appender
	if *timelineFlush > 0 {
		f, err := os.OpenFile(*timelineOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aongate: -timeline-out:", err)
			os.Exit(1)
		}
		st, err := f.Stat()
		if err != nil {
			fmt.Fprintln(os.Stderr, "aongate: -timeline-out:", err)
			os.Exit(1)
		}
		flushFile = f
		flushDst = session.NewAppender(f, st.Size() == 0)
		defer flushFile.Close()
	}

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aongate: -pprof:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "aongate: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "aongate: pprof:", err)
			}
		}()
	}

	var slowLog io.Writer
	if *trace {
		slowLog = os.Stderr
	}
	srv, err := gateway.New(gateway.Config{
		UseCase:      uc,
		MaxBodyBytes: *maxBody,
		IdleTimeout:  *idle,
		Upstream: upstream.Config{
			Order:             *order,
			Error:             *errAddr,
			Retries:           *upRetries,
			TryTimeout:        *upTimeout,
			MaxIdlePerBackend: *upIdle,
			MinIdlePerBackend: *upMinIdle,
			MaxConnLifetime:   *upLifetime,
		},
		Counters:              *hwCounters,
		Timeline:              *timeline,
		SampleInterval:        *sampleInterval,
		SampleCapacity:        *sampleCap,
		TimelineFlush:         flushDst,
		TimelineFlushInterval: *timelineFlush,
		Adaptive:              *adaptive,
		TargetP99:             *targetP99,
		AdaptInterval:         *adaptInterval,
		MaxInflight:           *maxInflight,
		Trace:                 *trace,
		TraceNode:             *traceNode,
		TraceSlowOver:         *traceSlowOver,
		TraceKeepEvery:        *traceKeepEvery,
		TraceCapacity:         *traceCap,
		SlowLog:               slowLog,
		SlowLogPerSec:         *slowLogPerSec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "aongate:", err)
		os.Exit(2)
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "aongate:", err)
		os.Exit(1)
	}
	mode := "in-place"
	if *order != "" || *errAddr != "" {
		mode = fmt.Sprintf("forwarding (order=%s error=%s)", *order, *errAddr)
	}
	fmt.Fprintf(os.Stderr, "aongate: listening on %s (usecase=%s GOMAXPROCS=%d mode=%s)\n",
		srv.Addr(), uc, runtime.GOMAXPROCS(0), mode)
	if cmode, notice := srv.CountersMode(); cmode != "off" {
		fmt.Fprintf(os.Stderr, "aongate: counters mode=%s", cmode)
		if notice != "" {
			fmt.Fprintf(os.Stderr, " — %s", notice)
		}
		fmt.Fprintln(os.Stderr)
	}

	switch {
	case flushDst != nil:
		fmt.Fprintf(os.Stderr, "aongate: sampling session every %v (GET /timeline), appending to %s every %v\n",
			*sampleInterval, *timelineOut, *timelineFlush)
	case *timeline:
		fmt.Fprintf(os.Stderr, "aongate: sampling session every %v (GET /timeline, SIGUSR1 dumps CSV to %s)\n",
			*sampleInterval, *timelineOut)
	}
	if *adaptive {
		fmt.Fprintln(os.Stderr, "aongate: adaptive capacity control on (/stats carries the capacity section)")
	}
	if *trace {
		fmt.Fprintln(os.Stderr, "aongate: distributed tracing on (GET /traces, slow-request log on stderr)")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	usr1 := make(chan os.Signal, 1)
	notifyUsr1(usr1)
	for running := true; running; {
		select {
		case <-usr1:
			if flushDst != nil {
				// Flush mode: push pending samples to the append file now
				// instead of re-dumping the whole ring over it.
				if n, err := srv.FlushTimeline(); err != nil {
					fmt.Fprintln(os.Stderr, "aongate: timeline flush:", err)
				} else {
					fmt.Fprintf(os.Stderr, "aongate: flushed %d timeline samples to %s\n", n, *timelineOut)
				}
			} else {
				// On-demand dump: snapshot the ring to CSV, keep serving.
				dumpTimeline(srv, *timelineOut)
			}
		case <-sig:
			running = false
		}
	}
	fmt.Fprintln(os.Stderr, "aongate: draining...")

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "aongate: drain incomplete:", err)
	}
	if *timeline && flushDst == nil {
		// The ring outlives the stopped sampler, so the shutdown dump
		// includes the session's final samples. In flush mode the final
		// samples were already appended by the shutdown-path flush.
		dumpTimeline(srv, *timelineOut)
	}
	b, _ := json.MarshalIndent(srv.Snapshot(), "", "  ")
	fmt.Println(string(b))
}

// dumpTimeline writes the sampling session's kept ring as CSV.
func dumpTimeline(srv *gateway.Server, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aongate: timeline dump:", err)
		return
	}
	n, werr := srv.WriteTimelineCSV(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, "aongate: timeline dump:", werr)
		return
	}
	fmt.Fprintf(os.Stderr, "aongate: wrote %d timeline samples to %s\n", n, path)
}
