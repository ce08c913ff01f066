// Command aonfleet is the one-command front end for multi-process (and
// multi-machine) AON experiments: it reads a declarative JSON topology,
// launches the aonback/aongate fleet in dependency order — backends,
// then gateways, each readiness-probed on /stats before the next tier
// starts — or attaches to already-running instances by address (no SSH,
// no agent: any node reachable over HTTP can join), records every node
// with the campaign's one recorder — each node's cumulative /stats read
// once per scrape_interval_ms, decoded the same way for a gateway and a
// backend, and windowed (launched gateways run with -counters, so each
// gateway window carries its CPI) — and runs the config's
// campaign against the first gateway with that recorder. Without a
// campaign the recording is passive: one attached gateway makes a
// timeline of that gateway, until ^C.
//
// Usage:
//
//	aonfleet -config fleet.json                # launch, run the campaign, report, stop
//	aonfleet -config fleet.json -print-report=false
//
// The "campaign" block is a full internal/campaign spec (see cmd/aoncamp):
// a connection sweep is one constant phase per connection count, and
// shaped phases and scripted fault storms work as they do there. Empty
// "backends" are filled from the topology's backend nodes so fault steps
// hit their live POST /fault endpoints. Its "sample_interval_ms" is
// refused: the fleet reads every node at "scrape_interval_ms".
//
// Topology config (see EXPERIMENTS.md for the full walkthrough):
//
//	{
//	  "out_dir": "fleet-out",
//	  "bin_dir": ".",
//	  "nodes": [
//	    {"role": "backend", "endpoint": "order", "addr": "127.0.0.1:9081", "count": 2},
//	    {"role": "backend", "endpoint": "error", "addr": "127.0.0.1:9091"},
//	    {"role": "gateway", "addr": "127.0.0.1:8080"}
//	  ],
//	  "campaign": {"phases": [
//	    {"name": "c1", "usecase": "FR", "duration_ms": 2000, "conns": 1},
//	    {"name": "c2", "usecase": "FR", "duration_ms": 2000, "conns": 2}
//	  ]}
//	}
//
// Remote machines join via "attach": true plus their address — start
// aonback/aongate there by hand (or under systemd), and aonfleet records
// them in the same session. Cross-node alignment is by each node's own
// monotonic clock (rel_ms = t_ms - the node's first t_ms), never by
// comparing wall clocks across machines.
//
// Artifacts land in out_dir: per-node logs; session.jsonl, the one
// session file — the phase events and one row per node read, written as
// read (crash-safe); with a campaign, campaign-report.txt and
// campaign-result.json — per phase, the client view, the gateway's CPI,
// and every node's window (throughput, p50/p99, CPI/cache-MPI where it
// carries counters) cut from the phase's start and end reads, with the
// fleet-total gateway throughput; and with "trace" on (launched or
// attached, with or without a campaign), traces.jsonl, every span pulled
// from the nodes' GET /traces as it lands, and at the end trace-report.txt,
// the critical-path report over every span joined into cross-node traces
// by trace ID.
//
// Exit status: 0 only when the campaign completed and every launched
// node exited cleanly; any node failure, readiness timeout, or campaign
// error is non-zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fleet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints the campaign report on
// stdout and progress on stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aonfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgPath := fs.String("config", "fleet.json", "fleet topology JSON")
	printReport := fs.Bool("print-report", true, "print the campaign report to stdout")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "aonfleet:", err)
		return code
	}

	cfg, err := fleet.LoadFile(*cfgPath)
	if err != nil {
		return fail(2, err)
	}
	co, err := fleet.New(cfg)
	if err != nil {
		return fail(2, err)
	}
	co.Logf = func(format string, args ...any) {
		fmt.Fprintf(stderr, "aonfleet: "+format+"\n", args...)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	if err := co.Start(); err != nil {
		co.Shutdown()
		return fail(1, err)
	}

	campaignErr := runCampaign(co, cfg, sig, stderr)

	finishErr := co.Finish()
	if finishErr != nil {
		fmt.Fprintln(stderr, "aonfleet:", finishErr)
	} else if *printReport {
		fmt.Fprint(stdout, co.CampaignReport())
	}
	shutdownErr := co.Shutdown()
	if shutdownErr != nil {
		fmt.Fprintln(stderr, "aonfleet:", shutdownErr)
	}
	if campaignErr != nil || finishErr != nil || shutdownErr != nil {
		return 1
	}
	return 0
}

// runCampaign drives the config's campaign when it carries one (its
// presence is the opt-in — no flag needed), or holds the fleet up for
// observation until a signal arrives. The campaign runs in a goroutine
// so a signal can abandon it (the fleet teardown still runs).
func runCampaign(co *fleet.Coordinator, cfg *fleet.Config, sig chan os.Signal, stderr io.Writer) error {
	if cfg.Campaign == nil {
		fmt.Fprintln(stderr, "aonfleet: fleet up, recording; ^C to stop")
		<-sig
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- co.RunCampaign() }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(stderr, "aonfleet:", err)
		}
		return err
	case s := <-sig:
		return fmt.Errorf("aonfleet: campaign interrupted by %v", s)
	}
}
