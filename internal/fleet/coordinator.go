package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/session"
	"repro/internal/workload"
)

// Coordinator owns one fleet campaign: launch (or attach to) the
// topology, keep a cross-node sampling session running, drive the sweep,
// and tear everything down with exit-status collection.
type Coordinator struct {
	cfg   *Config
	nodes []*Node

	merger  *Merger
	scraper *scraper
	// persisters are the open JSONL artifacts: the merged session and,
	// with the trace plane on, traces.jsonl.
	persisters []*session.JSONL

	// traces is the fleet trace plane's cross-node span store (nil unless
	// Config.Trace).
	traces *TraceStore

	stopScrape func() // joins the scrape loop; nil until Start

	points []pointReport

	campaignRes *campaign.Result

	// Logf receives progress lines (default os.Stderr).
	Logf func(format string, args ...any)
}

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

// Nodes exposes the expanded topology (ordered backends, gateways, load).
func (c *Coordinator) Nodes() []*Node { return c.nodes }

// Merger exposes the live merged session (nil before Start).
func (c *Coordinator) Merger() *Merger { return c.merger }

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

// scrapable lists the nodes with a stats surface.
func (c *Coordinator) scrapable() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n.Role != roleLoad {
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
// the next tier launches, and starts the cross-node scrape loop feeding
// the merged on-disk session.
func (c *Coordinator) Start() error {
	if err := os.MkdirAll(c.cfg.OutDir, 0o755); err != nil {
		return fmt.Errorf("fleet: out dir: %w", err)
	}
	writer, err := session.CreateJSONL(filepath.Join(c.cfg.OutDir, jsonlName))
	if err != nil {
		return err
	}
	c.persisters = append(c.persisters, writer)
	c.merger = newMerger(func(ns NodeSample) error { return writer.Write(ns) })
	c.scraper = newScraper(c.merger, c.cfg.ScrapeInterval()*4)
	if c.cfg.Trace {
		tw, err := session.CreateJSONL(filepath.Join(c.cfg.OutDir, tracesJSONLName))
		if err != nil {
			return err
		}
		c.persisters = append(c.persisters, tw)
		c.traces = newTraceStore(func(sp dtrace.Span) error { return tw.Write(sp) })
		c.scraper.traces = c.traces
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
		args := []string{"-addr", n.Addr, "-timeline"}
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

	c.stopScrape = session.Every(c.cfg.ScrapeInterval(), c.scrapeOnce)
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
		if err := gateway.GetJSON(addr, "/stats", c.scraper.timeout, &probe); err == nil {
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

// scrapeOnce sweeps all nodes now — the scrape loop's tick body, also called
// synchronously at sweep-point boundaries so windows close on fresh
// data. Scrape errors are logged, not fatal (liveness is owned by the
// readiness and exit checks).
func (c *Coordinator) scrapeOnce() {
	for _, err := range c.scraper.scrapeAll(c.scrapable()) {
		c.Logf("scrape: %v", err)
	}
}

// RunSweep drives one load point per configured connection count and
// cuts a per-node window from the merged session around each.
func (c *Coordinator) RunSweep() error {
	conns := c.cfg.Sweep.Conns
	if len(conns) == 0 {
		conns = []int{1}
	}
	gateways := c.byRole(roleGateway)
	target := dialable(gateways[0].Addr)
	for _, cc := range conns {
		c.scrapeOnce()
		mark := c.merger.Len()
		c.Logf("sweep: %d conns, %d messages against %s", cc, c.cfg.Sweep.Messages, target)
		rep, err := c.runLoad(target, cc)
		if err != nil {
			return fmt.Errorf("fleet: load point %d conns: %w", cc, err)
		}
		// Let each node's own sampler tick past the load before the
		// window closes, so a short point still carries its trailing
		// samples (a gateway timeline samples on its own clock).
		time.Sleep(c.cfg.ScrapeInterval())
		c.scrapeOnce()
		snap, err := gateway.FetchStats(gateways[0].Addr, c.scraper.timeout)
		if err != nil {
			c.Logf("sweep: gateway snapshot: %v", err)
		}
		window := c.merger.Slice(mark, c.merger.Len())
		c.points = append(c.points, buildPoint(cc, rep, window, snap))
		if err := c.merger.SinkErr(); err != nil {
			return err
		}
	}
	return nil
}

// runLoad executes one load point: through a launched aonload process
// when the topology declares a load node (its -out report file is read
// back), in-process otherwise — attach-mode fleets need no local
// binaries at all.
func (c *Coordinator) runLoad(target string, conns int) (gateway.Report, error) {
	var loadNode *Node
	for _, n := range c.byRole(roleLoad) {
		if !n.Attach {
			loadNode = n
			break
		}
	}
	sw := c.cfg.Sweep
	if loadNode == nil {
		uc, err := workload.ParseUseCase(sw.UseCase)
		if err != nil {
			return gateway.Report{}, err
		}
		lc := gateway.LoadConfig{
			Addr:     target,
			UseCase:  uc,
			Conns:    conns,
			Messages: sw.Messages,
			Size:     sw.SizeBytes,
		}
		if c.cfg.Trace {
			lc.TraceEvery = c.cfg.TraceClientEvery
			lc.TraceNode = "load/client"
		}
		rep, err := gateway.RunLoad(lc)
		if err == nil {
			c.foldClientSpans(rep)
		}
		return rep, err
	}
	outPath := filepath.Join(c.cfg.OutDir,
		fmt.Sprintf("load-%s-c%d.json", sanitize(loadNode.ID), conns))
	args := []string{
		"-addr", target,
		"-usecase", sw.UseCase,
		"-conns", strconv.Itoa(conns),
		"-n", strconv.Itoa(sw.Messages),
		"-out", outPath,
	}
	if sw.SizeBytes > 0 {
		args = append(args, "-size", strconv.Itoa(sw.SizeBytes))
	}
	if c.cfg.Trace {
		args = append(args, "-trace-client", strconv.Itoa(c.cfg.TraceClientEvery),
			"-trace-node", loadNode.Key())
	}
	args = append(args, loadNode.Flags...)
	logPath := filepath.Join(c.cfg.OutDir, sanitize(loadNode.Role+"-"+loadNode.ID)+".log")
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return gateway.Report{}, err
	}
	defer lf.Close()
	loadNode.logPath = logPath
	cmd := exec.Command(loadNode.binary(c.cfg.BinDir), args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Run(); err != nil {
		return gateway.Report{}, fmt.Errorf("%s: %v\n--- log tail ---\n%s",
			loadNode.Key(), err, loadNode.logTail(2048))
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		return gateway.Report{}, fmt.Errorf("%s: report: %w", loadNode.Key(), err)
	}
	var rep gateway.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return gateway.Report{}, fmt.Errorf("%s: report %s: %w", loadNode.Key(), outPath, err)
	}
	c.foldClientSpans(rep)
	return rep, nil
}

// foldClientSpans joins a load report's client-side spans into the
// fleet's trace store — the client vantage point completes the
// cross-node trace (the gateway and backend contribute theirs via the
// /traces scrape).
func (c *Coordinator) foldClientSpans(rep gateway.Report) {
	if c.traces == nil || len(rep.ClientSpans) == 0 {
		return
	}
	c.traces.AddSpans(rep.ClientSpans)
}

// Traces exposes the fleet's cross-node span store (nil unless
// Config.Trace).
func (c *Coordinator) Traces() *TraceStore { return c.traces }

// Finish stops the scrape loop, takes a final sample, renders every
// artifact (per-node CSVs, the merged CSV, the combined report), and
// returns the report text.
func (c *Coordinator) Finish() (string, error) {
	if c.stopScrape != nil {
		c.stopScrape()
	}
	c.scrapeOnce()
	if err := c.merger.SinkErr(); err != nil {
		return "", err
	}
	if c.traces != nil {
		if err := c.traces.SinkErr(); err != nil {
			return "", err
		}
		asm := c.traces.Assemble()
		cross := 0
		for _, t := range asm {
			if len(t.Nodes) > 1 {
				cross++
			}
		}
		c.Logf("traces: %d spans, %d assembled traces (%d cross-node) → %s",
			c.traces.Len(), len(asm), cross, filepath.Join(c.cfg.OutDir, tracesJSONLName))
	}
	if err := writeCSVs(c.cfg.OutDir, c.merger); err != nil {
		return "", err
	}
	report := formatFleetReport(c.points, c.merger)
	path := filepath.Join(c.cfg.OutDir, reportName)
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		return "", fmt.Errorf("fleet: report: %w", err)
	}
	c.Logf("artifacts in %s: %s, %s, %s, per-node CSVs and logs",
		c.cfg.OutDir, jsonlName, mergedCSVName, reportName)
	return report, nil
}

// Shutdown fans out the stop in reverse dependency order — gateways
// first (they drain in-flight forwards), then backends — and reports
// every non-clean exit as one error. Attached nodes are left running.
// Safe to call on a partially started fleet and after Finish.
func (c *Coordinator) Shutdown() error {
	if c.stopScrape != nil {
		c.stopScrape()
	}
	order := append(c.byRole(roleGateway), c.byRole(roleBackend)...)
	for _, n := range order {
		n.stop(c.cfg.Grace())
	}
	for _, w := range c.persisters {
		if err := w.Close(); err != nil {
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
