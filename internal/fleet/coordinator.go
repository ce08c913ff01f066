package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/session"
)

// Coordinator owns one fleet run: launch (or attach to) the topology,
// record every node with one campaign.Recorder, drive the campaign, and
// tear everything down with exit-status collection.
type Coordinator struct {
	cfg   *Config
	nodes []*Node

	// rec records every node from Start to Finish; RunCampaign hands it
	// to the campaign, which adds the phase boundary reads.
	rec      *campaign.Recorder
	stopOnce sync.Once
	recErr   error

	// traces is the fleet trace plane's cross-node span store, fed by
	// puller each tick and written to tracesOut (all nil unless
	// Config.Trace).
	traces     *TraceStore
	tracesOut  *session.JSONL
	puller     *tracePuller
	stopTraces func()

	campaignRes *campaign.Result

	// Logf receives progress lines (default os.Stderr).
	Logf func(format string, args ...any)
}

// probeTimeout bounds one readiness probe or /traces pull.
const probeTimeout = 2 * time.Second

// New validates and expands the topology. Nothing is launched yet.
func New(cfg *Config) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes, err := cfg.expand()
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:   cfg,
		nodes: nodes,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "aonfleet: "+format+"\n", args...)
		},
	}, nil
}

// Nodes exposes the expanded topology in config order.
func (c *Coordinator) Nodes() []*Node { return c.nodes }

// byRole returns the expanded nodes with the given role, in config order.
func (c *Coordinator) byRole(role string) []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n.Role == role {
			out = append(out, n)
		}
	}
	return out
}

// dialable rewrites a listen address ("" or ":8080" host parts) into one
// a client can connect to on this machine.
func dialable(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// Start brings the fleet up in dependency order — backends, then
// gateways — with a readiness probe against each node's /stats before
// the next tier launches, and starts recording every node into
// out_dir/session.jsonl at the scrape interval.
func (c *Coordinator) Start() error {
	if err := os.MkdirAll(c.cfg.OutDir, 0o755); err != nil {
		return fmt.Errorf("fleet: out dir: %w", err)
	}
	for _, n := range c.byRole(roleBackend) {
		args := []string{"-addr", n.Addr, "-name", n.Endpoint}
		if c.cfg.Trace {
			args = append(args, "-trace-node", n.Key())
		}
		if err := c.bringUp(n, args); err != nil {
			return err
		}
	}
	orderAddr, errorAddr := c.backendAddrs()
	for _, n := range c.byRole(roleGateway) {
		args := []string{"-addr", n.Addr, "-counters"}
		if c.cfg.Trace {
			args = append(args, "-trace", "-trace-node", n.Key())
		}
		if orderAddr != "" {
			args = append(args, "-order", orderAddr)
		}
		if errorAddr != "" {
			args = append(args, "-error", errorAddr)
		}
		if err := c.bringUp(n, args); err != nil {
			return err
		}
	}

	var nodes []campaign.RecordNode
	for _, n := range c.nodes {
		nodes = append(nodes, campaign.RecordNode{Key: n.Key(), Role: n.Role, Addr: dialable(n.Addr)})
	}
	rec, err := campaign.NewRecorder(c.cfg.OutDir, nodes, c.Logf)
	if err != nil {
		return err
	}
	c.rec = rec
	rec.Start(c.cfg.ScrapeInterval())
	if c.cfg.Trace {
		tw, err := session.CreateJSONL(filepath.Join(c.cfg.OutDir, tracesJSONLName))
		if err != nil {
			return err
		}
		c.tracesOut = tw
		c.traces = newTraceStore(func(sp dtrace.Span) error { return tw.Write(sp) })
		c.puller = &tracePuller{traces: c.traces}
		c.stopTraces = session.Every(c.cfg.ScrapeInterval(), c.pullTraces)
	}
	return nil
}

// backendAddrs picks the first order and first error backend for the
// gateways' forwarding flags.
func (c *Coordinator) backendAddrs() (order, errAddr string) {
	for _, n := range c.byRole(roleBackend) {
		switch {
		case n.Endpoint == "order" && order == "":
			order = dialable(n.Addr)
		case n.Endpoint == "error" && errAddr == "":
			errAddr = dialable(n.Addr)
		}
	}
	return order, errAddr
}

// bringUp launches (unless attached) and readiness-probes one node.
func (c *Coordinator) bringUp(n *Node, args []string) error {
	if n.Attach {
		c.Logf("%s: attaching to %s", n.Key(), n.Addr)
	} else {
		if err := n.launch(c.cfg.BinDir, c.cfg.OutDir, args); err != nil {
			return err
		}
		c.Logf("%s: launched on %s (pid %d)", n.Key(), n.Addr, n.cmd.Process.Pid)
	}
	return c.waitReady(n)
}

// waitReady polls the node's /stats until it answers 200, the node's
// process dies (fail fast, with the log tail as diagnosis), or the
// configured timeout lapses.
func (c *Coordinator) waitReady(n *Node) error {
	deadline := time.Now().Add(c.cfg.ReadyTimeout())
	addr := dialable(n.Addr)
	for {
		if n.exited() {
			return fmt.Errorf("fleet: %s: exited during startup: %v\n--- log tail ---\n%s",
				n.Key(), n.ExitErr, n.logTail(2048))
		}
		var probe json.RawMessage
		if err := gateway.GetJSON(addr, "/stats", probeTimeout, &probe); err == nil {
			c.Logf("%s: ready", n.Key())
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %s: not ready on %s after %v\n--- log tail ---\n%s",
				n.Key(), addr, c.cfg.ReadyTimeout(), n.logTail(2048))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// pullTraces pulls every node's kept spans once — the trace plane's tick
// body, and its final pull in Finish. A failed pull is logged, not fatal.
func (c *Coordinator) pullTraces() {
	for _, n := range c.nodes {
		if err := c.puller.pull(n); err != nil {
			c.Logf("traces: %s: %v", n.Key(), err)
		}
	}
}

// Traces exposes the fleet's cross-node span store (nil unless
// Config.Trace).
func (c *Coordinator) Traces() *TraceStore { return c.traces }

// Finish stops the recording and the trace pulls, takes the final trace
// pull, writes the trace report, and reports the first artifact write
// failure.
func (c *Coordinator) Finish() error {
	if err := c.stop(); err != nil {
		return err
	}
	if c.traces != nil {
		c.pullTraces()
		if err := c.traces.SinkErr(); err != nil {
			return err
		}
		var report bytes.Buffer
		dtrace.FormatReport(&report, c.traces.Assemble())
		path := filepath.Join(c.cfg.OutDir, traceReportName)
		if err := os.WriteFile(path, report.Bytes(), 0o644); err != nil {
			return fmt.Errorf("fleet: trace report: %w", err)
		}
		c.Logf("traces: %d spans → %s, %s", c.traces.Len(), filepath.Join(c.cfg.OutDir, tracesJSONLName), path)
	}
	c.Logf("artifacts in %s: session.jsonl and logs", c.cfg.OutDir)
	return nil
}

// stop ends the recording and the trace loop and closes the session
// artifacts, once; every call returns the recorder's write failure.
func (c *Coordinator) stop() error {
	c.stopOnce.Do(func() {
		if c.stopTraces != nil {
			c.stopTraces()
		}
		if c.rec != nil {
			c.recErr = c.rec.Close()
		}
	})
	return c.recErr
}

// Shutdown fans out the stop in reverse dependency order — gateways
// first (they drain in-flight forwards), then backends — and reports
// every non-clean exit as one error. Attached nodes are left running.
// Safe to call on a partially started fleet and after Finish.
func (c *Coordinator) Shutdown() error {
	_ = c.stop() // Finish reports a write failure; here the loops only need to end
	order := append(c.byRole(roleGateway), c.byRole(roleBackend)...)
	for _, n := range order {
		n.stop(c.cfg.Grace())
	}
	if c.tracesOut != nil {
		if err := c.tracesOut.Close(); err != nil {
			c.Logf("%v", err)
		}
	}
	var failed []string
	for _, n := range order {
		if n.ExitErr != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", n.Key(), n.ExitErr))
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		return fmt.Errorf("fleet: %d node(s) exited uncleanly:\n  %s",
			len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}
