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
// relayed to the routed backend over pooled keep-alive connections, one
// try per request: a dial or IO failure answers 502, a deadline expiry
// (-up-timeout) 504. /stats gains a per-backend "upstream" section.
// Without them it answers in place.
//
// With -counters, /stats gains a "counters" section: cumulative
// perf_event_open counts and derived CPI/cache-MPI/BrMPR (the paper's
// VTune metrics on live hardware) including a per-CPU skew view (one
// event group per logical CPU), degrading to runtime-metrics-only with a
// startup notice where perf events are denied. /stats is a pure read:
// a sampling session is cut by its reader from successive reads — the
// campaign recorder reads it every aoncamp sample_interval_ms and at
// every phase boundary (an aoncamp spec that attaches to a running
// gateway and has no phases is a passive recording).
//
// With -trace, the gateway runs the tracing plane (internal/dtrace),
// its one request clock: every request records real spans around
// read/parse/process/forward/write, and every finished request's span
// durations are aggregated into per-use-case per-stage histograms, the
// /stats "stages" section. The client makes the one sampling decision:
// a request carrying X-AON-Trace (an aoncamp campaign's trace_every) is
// adopted into the client's trace, kept in the
// ring served on GET /traces?last=N, and its context propagates on the
// upstream forward so aonback records a joined server-side span. An
// unsampled request is kept only if it was shed, refused while draining,
// reaped idle, answered 5xx, or took 50 ms or more, and is never
// propagated.
// cmd/aoncamp with trace_every set pulls /traces from every node into
// one traces.jsonl and renders the joined cross-node traces as a
// critical-path report, trace-report.txt. Every aongate an aoncamp
// topology launches runs with -trace and -counters.
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
	"errors"
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
	"repro/internal/upstream"
	"repro/internal/workload"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sig
		close(stop)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the command: it parses args, serves until stop closes, drains,
// prints the final snapshot JSON on stdout and progress on stderr, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("aongate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	ucName := fs.String("usecase", "FR", "default use case: FR, CBR, SV, DPI, AUTH")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown budget")
	idle := fs.Duration("idle-timeout", 0, "client connection read deadline (0 = 60s default, negative disables)")
	order := fs.String("order", "", "order backend address (enables upstream forwarding)")
	errAddr := fs.String("error", "", "error backend address (enables upstream forwarding)")
	upTimeout := fs.Duration("up-timeout", 0, "upstream round-trip deadline; past it the client gets 504 (0 = default 5s)")
	hwCounters := fs.Bool("counters", false, "enable the live measurement layer: cumulative perf_event_open counters on /stats (falls back to runtime metrics where perf is denied)")
	maxInflight := fs.Int64("max-inflight", 0, "admission bound: shed with 503 past this many in-flight messages (0 = 5x GOMAXPROCS)")
	trace := fs.Bool("trace", false, "run the tracing plane: per-request stage spans aggregated into the /stats stages section; client-sampled (X-AON-Trace), failed and slow traces kept on GET /traces, sampled ones propagated to the backend")
	traceNode := fs.String("trace-node", "", "node name stamped on this gateway's spans (default gateway; aoncamp passes role/id)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "aongate:", err)
		return code
	}

	uc, err := workload.ParseUseCase(*ucName)
	if err != nil {
		return fail(2, err)
	}
	if *hwCounters && !hwcount.Supported() {
		return fail(2, errors.New("-counters needs perf events, which this OS does not support"))
	}

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fail(1, fmt.Errorf("-pprof: %w", err))
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "aongate: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(stderr, "aongate: pprof:", err)
			}
		}()
	}

	srv, err := gateway.New(gateway.Config{
		UseCase:     uc,
		IdleTimeout: *idle,
		Upstream: upstream.Config{
			Order:      *order,
			Error:      *errAddr,
			TryTimeout: *upTimeout,
		},
		Counters:    *hwCounters,
		MaxInflight: *maxInflight,
		Trace:       *trace,
		TraceNode:   *traceNode,
	})
	if err != nil {
		return fail(2, err)
	}
	if err := srv.Start(*addr); err != nil {
		return fail(1, err)
	}
	mode := "in-place"
	if *order != "" || *errAddr != "" {
		mode = fmt.Sprintf("forwarding (order=%s error=%s)", *order, *errAddr)
	}
	fmt.Fprintf(stderr, "aongate: listening on %s (usecase=%s GOMAXPROCS=%d mode=%s)\n",
		srv.Addr(), uc, runtime.GOMAXPROCS(0), mode)
	if cmode, notice := srv.CountersMode(); cmode != "off" {
		fmt.Fprintf(stderr, "aongate: counters mode=%s", cmode)
		if notice != "" {
			fmt.Fprintf(stderr, " — %s", notice)
		}
		fmt.Fprintln(stderr)
	}

	if *trace {
		fmt.Fprintln(stderr, "aongate: distributed tracing on (GET /traces)")
	}

	<-stop
	fmt.Fprintln(stderr, "aongate: draining...")

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "aongate: drain incomplete:", err)
	}
	b, _ := json.MarshalIndent(srv.Snapshot(), "", "  ")
	fmt.Fprintln(stdout, string(b))
	return 0
}
