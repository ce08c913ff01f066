// Command aoncamp runs a scenario campaign against live AON nodes: a
// JSON spec describing time-phased traffic shapes (constant, ramp,
// diurnal, flash crowd, slow-loris) and scripted backend fault storms,
// and optionally the topology to run them on. The campaign brings the
// topology up, records every node's cumulative /stats every
// sample_interval_ms and at every phase boundary into a phase-tagged
// session timeline, and drives the phases against the first gateway.
// The output is a per-phase Figure-5/6-style report — offered vs
// delivered load, latency percentiles, scaling against the first phase,
// each node's window cut from the phase's start and end reads, stage
// windows — plus one crash-safe session file, session.jsonl.
//
// Usage:
//
//	aoncamp -spec examples/campaigns/constant.json -addr localhost:8080   # a single run
//	aoncamp -spec campaign.json -addr localhost:8080
//	aoncamp -spec examples/campaigns/fleet.json -out artifacts/          # a topology of its own
//
// A spec without "nodes" runs against -addr, recorded as the one
// attached node gateway/gw0. A spec with "nodes" names its own
// topology, and -addr is refused. Each node has a "kind":
//
//   - "launch" (the default) starts a child aongate or aonback, found on
//     PATH, at its "addr", its output in -out/<role>-<id>.log;
//   - "attach" joins a node already running at "addr", on this machine
//     or another (no SSH, no agent: anything reachable over HTTP joins);
//   - "inproc" starts a gateway.Server or a backend in this process.
//
// Backends start first, then gateways, each gateway forwarding to the
// first "order" and the first "error" backend; every node is
// readiness-probed on /stats before the next starts. Every gateway the
// campaign starts runs with tracing and counters on ("idle_timeout_ms"
// sets its read deadline, for slow-loris phases); backends run with
// aonback's defaults. Fault steps index the backend nodes in spec order
// and land on their live POST /fault endpoints. Cross-node alignment is
// by each node's own monotonic clock (rel_ms = t_ms - the node's first
// t_ms), never by comparing wall clocks across machines. For example:
//
//	{
//	  "nodes": [
//	    {"kind": "inproc", "role": "backend", "endpoint": "order"},
//	    {"kind": "inproc", "role": "backend", "endpoint": "error"},
//	    {"kind": "inproc", "role": "gateway", "idle_timeout_ms": 200}
//	  ],
//	  "phases": [{"name": "c1", "usecase": "FR", "duration_ms": 2000, "conns": 1}]
//	}
//
// The paper's scaling question is a spec of constant phases that differ
// in "gomaxprocs" (EXPERIMENTS.md "Live gateway scaling sweep"). The
// runner sets that width in this process, so such phases need an inproc
// gateway: against any other gateway they fail. The gateway's counters
// give each phase CPI and BrMPR (the paper's Tables 4/6 beside its
// Figures 5/6) and the GC CPU share. Where perf events are denied the
// campaign still completes: the derived values are then model
// predictions, marked * in the report, and the notice prints on stderr.
//
// A spec with "nodes" and no "phases" records until SIGINT/SIGTERM: a
// passive timeline of running nodes. With "trace_every" set the
// campaign originates a trace every that many requests per connection,
// and pulls every node's GET /traces at the sampling pace into
// traces.jsonl, joined at the end by trace ID into the critical-path
// report trace-report.txt.
//
// Artifacts land in -out: session.jsonl (the phase events and every
// node's sample rows, per-CPU detail included, one write per row),
// campaign-report.txt (the formatted report), campaign-result.json (the
// full machine-readable result, also printed on stdout), the launched
// nodes' logs, and the trace plane's two files.
//
// Exit status: 2 for a bad spec or flag, before any node starts; 1 when
// a node fails to start or its readiness probe times out, the campaign
// fails, a started node stops uncleanly, or SIGINT/SIGTERM abandons the
// phases (the started nodes are still stopped); 0 otherwise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, runs the spec until it completes
// or ctx is done, prints the result JSON on stdout and progress and the
// report on stderr, and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aoncamp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "campaign spec JSON file (required)")
	addr := fs.String("addr", "", "gateway address of a spec without nodes")
	out := fs.String("out", "aon-campaign", "artifact directory (session JSONL, report, result JSON, node logs, traces)")
	seed := fs.Uint64("seed", 0, "override the spec's generator seed (0 = keep the spec's)")
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
	spec, err := campaign.LoadSpec(*specPath)
	if err != nil {
		return fail(2, err)
	}
	switch {
	case len(spec.Nodes) == 0 && *addr == "":
		return fail(2, errors.New("a spec without nodes needs -addr"))
	case len(spec.Nodes) > 0 && *addr != "":
		return fail(2, errors.New("-addr is for a spec without nodes; this one names its own"))
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "aoncamp: "+format+"\n", args...)
	}
	res, err := campaign.Run(ctx, spec, campaign.Options{Addr: *addr, Out: *out, Logf: logf})
	if res != nil {
		report, resultJSON, werr := campaign.WriteArtifacts(*out, res)
		if werr == nil && *printReport {
			fmt.Fprint(stderr, report)
		}
		if werr == nil {
			fmt.Fprintln(stdout, string(resultJSON))
		}
		err = errors.Join(err, werr)
	}
	if err != nil {
		return fail(1, err)
	}
	return 0
}
