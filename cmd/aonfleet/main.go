// Command aonfleet is the one-command front end for multi-process (and
// multi-machine) AON experiments: it reads a declarative JSON topology,
// launches the aonback/aongate fleet in dependency order — backends,
// then gateways, each readiness-probed on /stats before the next tier
// starts — or attaches to already-running instances by address (no SSH,
// no agent: any node reachable over HTTP can join), keeps a cross-node
// sampling session running by scraping every node's /stats and
// /timeline on a fixed interval, and, with -sweep, drives one load
// point per configured connection count.
//
// Usage:
//
//	aonfleet -config fleet.json -sweep      # launch, sweep, report, stop
//	aonfleet -config fleet.json             # launch + observe until ^C
//	aonfleet -config fleet.json -print-report
//
// A config with a "campaign" block (a full internal/campaign scenario
// spec: phased traffic shapes plus scripted fault storms) replaces the
// sweep: the fleet launches, the campaign runs against the first
// gateway — with empty "backends" filled from the topology's backend
// nodes so fault steps hit their live POST /fault endpoints — and the
// per-phase report lands next to the fleet report. "sweep.conns" and
// "campaign" are mutually exclusive.
//
// Topology config (see EXPERIMENTS.md for the full walkthrough):
//
//	{
//	  "out_dir": "fleet-out",
//	  "bin_dir": ".",
//	  "nodes": [
//	    {"role": "backend", "endpoint": "order", "addr": "127.0.0.1:9081", "count": 2},
//	    {"role": "backend", "endpoint": "error", "addr": "127.0.0.1:9091"},
//	    {"role": "gateway", "addr": "127.0.0.1:8080"},
//	    {"role": "load"}
//	  ],
//	  "sweep": {"conns": [1, 2, 4, 8], "messages": 2000, "usecase": "FR"}
//	}
//
// Remote machines join via "attach": true plus their address — start
// aonback/aongate there by hand (or under systemd), and aonfleet merges
// their samples into the same session. Cross-node alignment is by each
// node's own monotonic sample clock (rel_ms = t_ms - the node's first
// sample), never by comparing wall clocks across machines.
//
// Artifacts land in out_dir: per-node logs, merged-session.jsonl
// (written as scraped — crash-safe), per-node session CSVs, a merged
// CSV (node/role/rel_ms columns prefixed; still readable by the stock
// session tooling and aonsim -exp capacity), load reports per sweep
// point, and fleet-report.txt — the combined Figure-5/6-style view with
// per-node and fleet-total throughput, p50/p99, CPI/cache-MPI where nodes
// carry counters, and capacity model-error columns when a gateway runs
// -adaptive (add it via the gateway node's "flags").
//
// Exit status: 0 only when the campaign completed and every launched
// node exited cleanly; any node failure, readiness timeout, or sweep
// error is non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fleet"
)

func main() {
	cfgPath := flag.String("config", "fleet.json", "fleet topology JSON")
	sweep := flag.Bool("sweep", false, "drive the configured sweep campaign, then shut the fleet down")
	printReport := flag.Bool("print-report", true, "print the combined fleet report to stdout")
	flag.Parse()

	cfg, err := fleet.LoadFile(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aonfleet:", err)
		os.Exit(2)
	}
	co, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aonfleet:", err)
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if err := co.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "aonfleet:", err)
		co.Shutdown()
		os.Exit(1)
	}

	campaignErr := runCampaign(co, cfg, *sweep, sig)

	report, finishErr := co.Finish()
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "aonfleet:", finishErr)
	} else if *printReport {
		fmt.Print(report)
		if cr := co.CampaignReport(); cr != "" {
			fmt.Print(cr)
		}
	}
	shutdownErr := co.Shutdown()
	if shutdownErr != nil {
		fmt.Fprintln(os.Stderr, "aonfleet:", shutdownErr)
	}
	if campaignErr != nil || finishErr != nil || shutdownErr != nil {
		os.Exit(1)
	}
}

// runCampaign drives the configured load: a scenario campaign when the
// config carries one (its presence is the opt-in — no flag needed), the
// connection sweep under -sweep, or an observe-only hold until a signal
// arrives. Both drivers are interruptible via the process signal.
func runCampaign(co *fleet.Coordinator, cfg *fleet.Config, sweep bool, sig chan os.Signal) error {
	if cfg.Campaign != nil {
		return interruptible(co.RunCampaign, "campaign", sig)
	}
	if sweep {
		return interruptible(co.RunSweep, "sweep", sig)
	}
	fmt.Fprintln(os.Stderr, "aonfleet: fleet up, scraping; ^C to stop")
	<-sig
	return nil
}

// interruptible runs the driver in a goroutine so a signal can abandon
// it (the fleet teardown still runs).
func interruptible(run func() error, what string, sig chan os.Signal) error {
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "aonfleet:", err)
		}
		return err
	case s := <-sig:
		return fmt.Errorf("aonfleet: %s interrupted by %v", what, s)
	}
}
