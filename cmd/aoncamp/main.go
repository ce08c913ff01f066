// Command aoncamp runs a scenario campaign against a live AON gateway:
// a JSON spec describing time-phased traffic shapes (constant, ramp,
// diurnal, flash crowd, slow-loris) and scripted backend fault storms,
// executed phase by phase while the campaign's recorder reads the
// gateway's cumulative /stats every sample_interval_ms and at every phase
// boundary into a phase-tagged session timeline. The output is a
// per-phase Figure-5/6-style report — offered vs delivered load, latency
// percentiles, scaling against the first phase, the gateway's window cut
// from the phase's start and end reads, stage windows — plus one
// crash-safe session file, session.jsonl.
//
// Usage:
//
//	aoncamp -spec examples/campaigns/constant.json -addr localhost:8080   # a single run
//	aoncamp -spec campaign.json -addr localhost:8080
//	aoncamp -spec campaign.json -selfgate -selfback 2 -out artifacts/
//	aoncamp -spec campaign.json -selfgate -idle-timeout 150ms   # slow-loris demo
//	aoncamp -spec scaling.json -selfgate -counters              # 1→2 scaling with CPI
//
// -selfgate stands the gateway up in-process on loopback, so one command
// runs a whole campaign; with -selfback N it also self-hosts N
// fault-injectable backends, rewiring the spec's backends list to them
// (first = order route, second = error route). Fault steps in the spec
// then land on live POST /fault endpoints.
//
// The paper's scaling question is a spec of constant phases that differ
// in "gomaxprocs" (EXPERIMENTS.md "Live gateway scaling sweep"). The
// runner sets that width in this process, so such phases need -selfgate:
// against any other gateway they fail. -counters turns on the
// self-hosted gateway's measurement layer, and the report gains per-phase
// CPI and BrMPR (the paper's Tables 4/6 beside its Figures 5/6) and the
// GC CPU share. Where perf events are denied the campaign still
// completes: the derived values are then model predictions, marked * in
// the report, and the notice prints on stderr.
//
// Artifacts land in -out: session.jsonl (written by the recorder, one
// write per row: the phase events and every sample row, per-CPU detail
// included; the gateway is node gateway/gw0, the schema aonfleet writes
// for a whole topology), campaign-report.txt (the formatted report),
// campaign-result.json (the full machine-readable result).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/hwcount"
	"repro/internal/upstream"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints the result JSON on stdout
// and progress and the report on stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aoncamp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "campaign spec JSON file (required)")
	addr := fs.String("addr", "", "gateway address (overrides the spec's addr)")
	out := fs.String("out", "aon-campaign", "artifact directory (session JSONL, report, result JSON)")
	seed := fs.Uint64("seed", 0, "override the spec's generator seed (0 = keep the spec's)")
	selfgate := fs.Bool("selfgate", false, "self-host an in-process gateway on loopback")
	idle := fs.Duration("idle-timeout", 2*time.Second, "selfgate: client idle timeout (slow-loris phases shed when their trickle interval exceeds this)")
	hwCounters := fs.Bool("counters", false, "selfgate: per-phase CPI/BrMPR/GC columns from perf_event_open (model-predicted where perf events are denied)")
	selfback := fs.Int("selfback", 0, "self-host N loopback backends and point the spec's backends list at them")
	respSize := fs.Int("resp-size", 128, "self-hosted backend response body bytes")
	backDelay := fs.Duration("back-delay", 0, "self-hosted backend service delay per message")
	printReport := fs.Bool("print-report", true, "print the formatted report to stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "aoncamp:", err)
		return code
	}

	if *specPath == "" {
		return fail(2, errors.New("-spec is required"))
	}
	if *hwCounters && !*selfgate {
		return fail(2, errors.New("-counters configures the -selfgate gateway; start an external one with aongate -counters"))
	}
	if *hwCounters && !hwcount.Supported() {
		return fail(2, errors.New("-counters needs perf events, which this OS does not support"))
	}
	spec, err := campaign.LoadSpec(*specPath)
	if err != nil {
		return fail(2, err)
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	// Self-hosted backends: replace the spec's backend list so fault
	// steps hit live /fault endpoints, and (with -selfgate) wire them as
	// the gateway's order/error routes.
	if *selfback > 0 {
		var addrs []string
		for i := 0; i < *selfback; i++ {
			name := "order"
			if i == 1 {
				name = "error"
			} else if i > 1 {
				name = fmt.Sprintf("back-%d", i)
			}
			b, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{
				Name: name, RespBytes: *respSize, Delay: *backDelay, Seed: spec.Seed + uint64(i),
			})
			if err != nil {
				return fail(1, fmt.Errorf("backend: %w", err))
			}
			defer b.Close()
			addrs = append(addrs, b.Addr().String())
			fmt.Fprintf(stderr, "aoncamp: backend %s on %s (POST /fault live)\n", name, b.Addr())
		}
		spec.Backends = addrs
	}
	// Validation runs after the -selfback rewiring so fault steps are
	// checked against the backends that will actually serve them.
	if err := spec.Validate(); err != nil {
		return fail(2, err)
	}

	target := *addr
	if *selfgate {
		up := upstream.Config{}
		if len(spec.Backends) > 0 {
			up.Order = spec.Backends[0]
		}
		if len(spec.Backends) > 1 {
			up.Error = spec.Backends[1]
		}
		srv, err := gateway.New(gateway.Config{
			Trace:       true, // the report's stage windows read the traced stage histograms
			IdleTimeout: *idle,
			Upstream:    up,
			Counters:    *hwCounters,
		})
		if err != nil {
			return fail(1, fmt.Errorf("gateway: %w", err))
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return fail(1, fmt.Errorf("gateway: %w", err))
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		target = srv.Addr().String()
		mode := "in-place"
		if up.Enabled() {
			mode = fmt.Sprintf("forwarding (order=%s error=%s)", up.Order, up.Error)
		}
		fmt.Fprintf(stderr, "aoncamp: gateway on %s, GOMAXPROCS %d, idle timeout %v, %s\n",
			target, runtime.GOMAXPROCS(0), *idle, mode)
		if *hwCounters {
			if m, notice := srv.CountersMode(); m == "runtime-only" {
				fmt.Fprintf(stderr, "aoncamp: counters: runtime-only mode: %s\n", notice)
			} else {
				fmt.Fprintf(stderr, "aoncamp: counters: %s mode (perf_event_open)\n", m)
			}
		}
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	rec, err := campaign.NewRecorder(*out, []campaign.RecordNode{
		{Key: campaign.RoleGateway + "/gw0", Role: campaign.RoleGateway, Addr: target},
	}, logf)
	if err != nil {
		return fail(1, err)
	}
	res, err := campaign.Run(spec, campaign.Options{Addr: target, Recorder: rec, Logf: logf})
	if err := errors.Join(err, rec.Close()); err != nil {
		return fail(1, err)
	}

	report, resultJSON, err := campaign.WriteArtifacts(*out, res)
	if err != nil {
		return fail(1, err)
	}
	if *printReport {
		fmt.Fprint(stderr, report)
	}
	fmt.Fprintln(stdout, string(resultJSON))
	return 0
}
