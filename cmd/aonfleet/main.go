// Command aonfleet is the one-command front end for multi-process (and
// multi-machine) AON experiments: it reads a declarative JSON topology,
// launches the aonback/aongate fleet in dependency order — backends,
// then gateways, each readiness-probed on /stats before the next tier
// starts — or attaches to already-running instances by address (no SSH,
// no agent: any node reachable over HTTP can join), keeps a cross-node
// sampling session running by scraping every node's cumulative /stats
// on a fixed interval and windowing it (launched gateways run with
// -counters, so each window carries its CPI), and runs the config's
// campaign against the first gateway. Without a campaign, one attached
// gateway makes a passive recording of that gateway's timeline.
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
// hit their live POST /fault endpoints. Without a campaign block the
// fleet comes up and is observed until ^C.
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
// aonback/aongate there by hand (or under systemd), and aonfleet merges
// their samples into the same session. Cross-node alignment is by each
// node's own monotonic sample clock (rel_ms = t_ms - the node's first
// sample), never by comparing wall clocks across machines.
//
// Artifacts land in out_dir: per-node logs, merged-session.jsonl
// (written as scraped — crash-safe), per-node session CSVs, a merged
// CSV (node/role/rel_ms columns prefixed; still readable by the stock
// session tooling and aonsim -exp capacity), the campaign's report,
// result and phase-tagged session, and fleet-report.txt — per campaign
// phase, every node's throughput, p50/p99 and CPI/cache-MPI where it
// carries counters, and the fleet-total gateway throughput.
//
// Exit status: 0 only when the campaign completed and every launched
// node exited cleanly; any node failure, readiness timeout, or campaign
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

	campaignErr := runCampaign(co, cfg, sig)

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

// runCampaign drives the config's campaign when it carries one (its
// presence is the opt-in — no flag needed), or holds the fleet up for
// observation until a signal arrives. The campaign runs in a goroutine
// so a signal can abandon it (the fleet teardown still runs).
func runCampaign(co *fleet.Coordinator, cfg *fleet.Config, sig chan os.Signal) error {
	if cfg.Campaign == nil {
		fmt.Fprintln(os.Stderr, "aonfleet: fleet up, scraping; ^C to stop")
		<-sig
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- co.RunCampaign() }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "aonfleet:", err)
		}
		return err
	case s := <-sig:
		return fmt.Errorf("aonfleet: campaign interrupted by %v", s)
	}
}
