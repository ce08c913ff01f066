// Package fleet is the coordinator behind cmd/aonfleet: it launches a
// topology of aongate/aonback/aonload processes (or attaches to already
// -running instances by their listen/stats addresses — no SSH, no agent),
// drives a sweep campaign against the gateway, and merges every node's
// self-reported observability (/stats, /timeline) into one cross-node
// sampling session persisted to disk as it is collected.
//
// The paper's scaling study compares one processing unit against two
// inside a single chassis; the ROADMAP pushes that question to fleet
// size. This package makes the multi-process half of that repeatable:
// the EXPERIMENTS.md two-machine recipe becomes one declarative config
// and one command, with ordered start (backends → gateway → load),
// readiness probes, per-node log capture, graceful fan-out shutdown with
// exit-status collection, and a merged Figure-5/6-style report at the
// end.
package fleet

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"repro/internal/campaign"
)

// Node roles. Backends start first, then gateways, then load — the
// dependency order of the paper's client → device → endpoint chain.
const (
	roleBackend = "backend"
	roleGateway = "gateway"
	roleLoad    = "load"
)

// NodeConfig is one topology entry in the declarative fleet config.
type NodeConfig struct {
	// Role is backend, gateway, or load.
	Role string `json:"role"`
	// ID names the node in logs, session keys, and reports. Default
	// role<index>; with Count > 1 each replica gets "-<i>" appended.
	ID string `json:"id,omitempty"`
	// Addr is the node's listen (and stats) address, host:port. Required
	// for backend and gateway nodes; load nodes have none.
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

// SweepConfig drives the load campaign: one load point per connection
// count, each sending Messages messages.
type SweepConfig struct {
	// Conns lists the concurrency steps (e.g. [1, 2, 4, 8]) — the fleet
	// analogue of the paper's 1-unit→2-unit x axis.
	Conns []int `json:"conns"`
	// Messages per load point (default 1000).
	Messages int `json:"messages,omitempty"`
	// UseCase selects the pipeline (default FR).
	UseCase string `json:"usecase,omitempty"`
	// SizeBytes is the approximate POST body size (0 = the paper's 5 KB).
	SizeBytes int `json:"size_bytes,omitempty"`
}

// Config is the declarative fleet topology, loaded from JSON.
type Config struct {
	// OutDir receives every artifact: per-node logs, the merged JSONL
	// session, per-node and merged CSVs, and the campaign report.
	// Default "fleet-out".
	OutDir string `json:"out_dir,omitempty"`
	// BinDir holds the aonback/aongate/aonload binaries. Empty means
	// resolve from PATH.
	BinDir string `json:"bin_dir,omitempty"`
	// ScrapeIntervalMS is the cross-node sampling period (default 200).
	ScrapeIntervalMS int `json:"scrape_interval_ms,omitempty"`
	// ReadyTimeoutMS bounds each node's readiness probe (default 10000).
	ReadyTimeoutMS int `json:"ready_timeout_ms,omitempty"`
	// GraceMS is the per-node SIGTERM→SIGKILL escalation budget at
	// shutdown (default 10000).
	GraceMS int `json:"grace_ms,omitempty"`
	// Trace turns on the fleet's distributed-trace plane: launched
	// gateways get -trace (tail-based sampling + GET /traces), every
	// launched node gets -trace-node <role/id> so spans carry fleet
	// identities, the load driver originates a trace every
	// TraceClientEvery requests, and the scrape loop joins every node's
	// kept spans into <out_dir>/traces.jsonl for cmd/aontrace. Off by
	// default — the trace plane is opt-in per campaign.
	Trace bool `json:"trace,omitempty"`
	// TraceClientEvery originates a client-side trace every Nth request
	// per connection (default 16 when Trace is set; ignored otherwise).
	TraceClientEvery int `json:"trace_client_every,omitempty"`

	Nodes []NodeConfig `json:"nodes"`
	Sweep SweepConfig  `json:"sweep"`
	// Campaign embeds a scenario campaign spec (internal/campaign): the
	// fleet launches the topology, then drives the phased scenario
	// against its first gateway instead of the connection sweep. The
	// spec's addr and (when empty) backends list are filled from the
	// topology at run time. Mutually exclusive with sweep.conns.
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
	if c.TraceClientEvery < 0 {
		return fmt.Errorf("fleet: trace_client_every %d, want >= 0", c.TraceClientEvery)
	}
	if c.Trace && c.TraceClientEvery == 0 {
		c.TraceClientEvery = 16
	}
	if c.Sweep.Messages <= 0 {
		c.Sweep.Messages = 1000
	}
	if c.Sweep.UseCase == "" {
		c.Sweep.UseCase = "FR"
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
		case roleLoad:
		default:
			return fmt.Errorf("fleet: node %d: role %q, want backend, gateway, or load", i, n.Role)
		}
		if n.Role != roleLoad && n.Addr == "" {
			return fmt.Errorf("fleet: node %d (%s): addr required", i, n.Role)
		}
		if n.Count < 0 {
			return fmt.Errorf("fleet: node %d: count %d, want >= 0", i, n.Count)
		}
		if n.Count > 1 && n.Role != roleLoad {
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
	if c.Campaign != nil && len(c.Sweep.Conns) > 0 {
		return fmt.Errorf("fleet: config sets both sweep.conns and campaign — pick one load driver")
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
				if nc.Addr != "" {
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
			}
			out = append(out, n)
		}
	}
	return out, nil
}
