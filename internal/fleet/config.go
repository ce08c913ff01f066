// Package fleet is the coordinator behind cmd/aonfleet: it launches a
// topology of aongate/aonback processes (or attaches to already-running
// instances by their listen/stats addresses — no SSH, no agent), records
// every node's cumulative /stats with the one campaign.Recorder into one
// cross-node session persisted to disk as it is read, and drives the
// config's campaign against the gateway with that recorder.
//
// The paper's scaling study compares one processing unit against two
// inside a single chassis; the ROADMAP pushes that question to fleet
// size. This package makes the multi-process half of that repeatable:
// the EXPERIMENTS.md two-machine recipe becomes one declarative config
// and one command, with ordered start (backends → gateways), readiness
// probes, per-node log capture, graceful fan-out shutdown with
// exit-status collection, and per-phase, per-node windows in the
// campaign's report. The load and the recording are the one run engine's
// (internal/campaign).
package fleet

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"repro/internal/campaign"
)

// Node roles. Backends start first, then gateways — the dependency
// order of the paper's device → endpoint chain; the campaign is the
// client.
const (
	roleBackend = campaign.RoleBackend
	roleGateway = campaign.RoleGateway
)

// NodeConfig is one topology entry in the declarative fleet config.
type NodeConfig struct {
	// Role is backend or gateway.
	Role string `json:"role"`
	// ID names the node in logs, session keys, and reports. Default
	// role<index>; with Count > 1 each replica gets "-<i>" appended.
	ID string `json:"id,omitempty"`
	// Addr is the node's listen (and stats) address, host:port.
	// Required.
	Addr string `json:"addr,omitempty"`
	// Endpoint is a backend's role in the gateway topology: "order" or
	// "error". The coordinator wires the gateway's -order/-error flags
	// from these. Default "order".
	Endpoint string `json:"endpoint,omitempty"`
	// Count expands this entry into Count replicas with consecutive
	// ports. 0 means 1.
	Count int `json:"count,omitempty"`
	// Attach joins an already-running instance at Addr instead of
	// launching a process: the coordinator only probes and scrapes it —
	// the SSH-free way to pull remote machines into one session.
	Attach bool `json:"attach,omitempty"`
	// Flags are extra command-line flags appended to the launch command
	// (ignored for attached nodes).
	Flags []string `json:"flags,omitempty"`
}

// Config is the declarative fleet topology, loaded from JSON.
type Config struct {
	// OutDir receives every artifact: per-node logs, the recorder's
	// session.jsonl (every node, phase-tagged), the
	// campaign's report and result, and with Trace traces.jsonl and
	// trace-report.txt.
	// Default "fleet-out".
	OutDir string `json:"out_dir,omitempty"`
	// BinDir holds the aonback/aongate binaries. Empty means resolve
	// from PATH.
	BinDir string `json:"bin_dir,omitempty"`
	// ScrapeIntervalMS is the recorder's period: every node is read once
	// per interval, and the trace plane pulls at the same pace (default
	// 200). An embedded campaign's own sample_interval_ms is refused.
	ScrapeIntervalMS int `json:"scrape_interval_ms,omitempty"`
	// ReadyTimeoutMS bounds each node's readiness probe (default 10000).
	ReadyTimeoutMS int `json:"ready_timeout_ms,omitempty"`
	// GraceMS is the per-node SIGTERM→SIGKILL escalation budget at
	// shutdown (default 10000).
	GraceMS int `json:"grace_ms,omitempty"`
	// Trace turns on the fleet's distributed-trace plane: launched
	// gateways get -trace (tail-based sampling + GET /traces), every
	// launched node gets -trace-node <role/id> so spans carry fleet
	// identities, the campaign originates a trace every trace_every
	// requests per connection (default 16), and the trace pulls join
	// every node's kept spans into <out_dir>/traces.jsonl, rendered at
	// Finish as the critical-path report <out_dir>/trace-report.txt. Off
	// by default — the trace plane is opt-in per fleet.
	Trace bool `json:"trace,omitempty"`

	Nodes []NodeConfig `json:"nodes"`
	// Campaign embeds a campaign spec (internal/campaign): the fleet
	// launches the topology, then drives the phases against its first
	// gateway — a connection sweep is one constant phase per count. The
	// spec's addr and (when empty) backends list are filled from the
	// topology at run time. Without one the fleet only observes.
	Campaign *campaign.Spec `json:"campaign,omitempty"`
}

// LoadFile reads and validates a fleet config.
func LoadFile(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: config: %w", err)
	}
	cfg, err := parseConfig(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// parseConfig strictly decodes (campaign.DecodeStrict: no unknown field,
// the embedded campaign's included, and nothing after the document) and
// validates a fleet config.
func parseConfig(data []byte) (*Config, error) {
	var cfg Config
	if err := campaign.DecodeStrict(data, &cfg); err != nil {
		return nil, fmt.Errorf("fleet: config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Validate applies defaults and rejects impossible topologies.
func (c *Config) Validate() error {
	if c.OutDir == "" {
		c.OutDir = "fleet-out"
	}
	if c.ScrapeIntervalMS == 0 {
		c.ScrapeIntervalMS = 200
	}
	if c.ScrapeIntervalMS < 0 {
		return fmt.Errorf("fleet: scrape_interval_ms %d, want > 0", c.ScrapeIntervalMS)
	}
	if c.ReadyTimeoutMS <= 0 {
		c.ReadyTimeoutMS = 10000
	}
	if c.GraceMS <= 0 {
		c.GraceMS = 10000
	}
	if len(c.Nodes) == 0 {
		return fmt.Errorf("fleet: config has no nodes")
	}
	gateways := 0
	for i := range c.Nodes {
		n := &c.Nodes[i]
		switch n.Role {
		case roleBackend:
			if n.Endpoint == "" {
				n.Endpoint = "order"
			}
			if n.Endpoint != "order" && n.Endpoint != "error" {
				return fmt.Errorf("fleet: node %d: endpoint %q, want order or error", i, n.Endpoint)
			}
		case roleGateway:
			gateways++
		default:
			return fmt.Errorf("fleet: node %d: role %q, want backend or gateway", i, n.Role)
		}
		if n.Addr == "" {
			return fmt.Errorf("fleet: node %d (%s): addr required", i, n.Role)
		}
		if n.Count < 0 {
			return fmt.Errorf("fleet: node %d: count %d, want >= 0", i, n.Count)
		}
		if n.Count > 1 {
			if _, _, err := net.SplitHostPort(n.Addr); err != nil {
				return fmt.Errorf("fleet: node %d: count %d needs a host:port addr: %v", i, n.Count, err)
			}
		}
		if n.ID == "" {
			n.ID = fmt.Sprintf("%s%d", n.Role, i)
		}
	}
	if gateways == 0 {
		return fmt.Errorf("fleet: topology has no gateway node")
	}
	// The fleet records every node at scrape_interval_ms, so a campaign
	// sampling period would be ignored: refuse it instead.
	if c.Campaign != nil && c.Campaign.SampleIntervalMS != 0 {
		return fmt.Errorf("fleet: campaign sample_interval_ms %d: a fleet records every node at scrape_interval_ms; set that instead",
			c.Campaign.SampleIntervalMS)
	}
	// The trace plane is on: the campaign originates client traces, one
	// per 16 requests per connection unless it says otherwise.
	if c.Trace && c.Campaign != nil && c.Campaign.TraceEvery == 0 {
		c.Campaign.TraceEvery = 16
	}
	// The campaign spec itself is validated in RunCampaign, after the
	// coordinator has injected the topology's gateway and backend
	// addresses (fault steps are checked against the backends that will
	// actually serve them).
	return nil
}

// ScrapeInterval returns the sampling period as a duration.
func (c *Config) ScrapeInterval() time.Duration {
	return time.Duration(c.ScrapeIntervalMS) * time.Millisecond
}

// ReadyTimeout returns the readiness-probe budget as a duration.
func (c *Config) ReadyTimeout() time.Duration {
	return time.Duration(c.ReadyTimeoutMS) * time.Millisecond
}

// Grace returns the shutdown escalation budget as a duration.
func (c *Config) Grace() time.Duration {
	return time.Duration(c.GraceMS) * time.Millisecond
}

// expand flattens Count replicas into individual nodes: replica i of a
// host:port entry listens on port+i and is named "<id>-<i>".
func (c *Config) expand() ([]*Node, error) {
	var out []*Node
	for i := range c.Nodes {
		nc := c.Nodes[i]
		count := nc.Count
		if count == 0 {
			count = 1
		}
		for r := 0; r < count; r++ {
			n := &Node{
				Role:     nc.Role,
				ID:       nc.ID,
				Addr:     nc.Addr,
				Endpoint: nc.Endpoint,
				Attach:   nc.Attach,
				Flags:    nc.Flags,
			}
			if count > 1 {
				n.ID = fmt.Sprintf("%s-%d", nc.ID, r)
				host, portStr, err := net.SplitHostPort(nc.Addr)
				if err != nil {
					return nil, fmt.Errorf("fleet: node %s: %v", nc.ID, err)
				}
				port, err := strconv.Atoi(portStr)
				if err != nil {
					return nil, fmt.Errorf("fleet: node %s: bad port %q", nc.ID, portStr)
				}
				n.Addr = net.JoinHostPort(host, strconv.Itoa(port+r))
			}
			out = append(out, n)
		}
	}
	return out, nil
}
