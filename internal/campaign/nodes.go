package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/hwcount"
	"repro/internal/upstream"
)

// NodeKind says who starts a node of a spec's topology.
type NodeKind string

const (
	// KindLaunch starts the node as a child aongate or aonback, found on
	// PATH, its output captured in <out>/<role>-<id>.log.
	KindLaunch NodeKind = "launch"
	// KindAttach joins a node already running at Addr — on this machine
	// or another, started by hand: it is probed and recorded, never
	// started or stopped.
	KindAttach NodeKind = "attach"
	// KindInproc starts the node in this process: a gateway.Server or an
	// upstream backend. A phase's gomaxprocs needs an inproc gateway.
	KindInproc NodeKind = "inproc"
)

// NodeSpec is one entry of a spec's topology: a gateway or a backend,
// and who starts it. Every gateway the campaign starts runs with tracing
// and counters on; backends run with aonback's defaults.
type NodeSpec struct {
	// Kind is launch (default), attach or inproc.
	Kind NodeKind `json:"kind,omitempty"`
	// Role is gateway or backend.
	Role string `json:"role"`
	// ID names the node in logs, rows and reports as role/id. Default
	// role<index>; with Count > 1 each replica gets "-<i>" appended.
	ID string `json:"id,omitempty"`
	// Addr is the node's listen and control address, host:port. Launch
	// and attach nodes need one; an inproc node defaults to 127.0.0.1:0.
	Addr string `json:"addr,omitempty"`
	// Endpoint is a backend's route at the gateways: order (default) or
	// error. Each gateway forwards to the first order and the first
	// error backend.
	Endpoint string `json:"endpoint,omitempty"`
	// Count expands the entry into Count replicas on consecutive ports
	// (0 means 1).
	Count int `json:"count,omitempty"`
	// Flags are appended to a launch node's command line, after the
	// campaign's own, so they can override them.
	Flags []string `json:"flags,omitempty"`
	// IdleTimeoutMS is a started gateway's client read deadline (0 = the
	// gateway's default): a slow-loris phase is reaped only when its
	// trickle is slower than this.
	IdleTimeoutMS int `json:"idle_timeout_ms,omitempty"`
}

// Node lifecycle budgets: a readiness probe, one probe or /traces pull,
// and a launched node's SIGTERM→SIGKILL grace (an inproc gateway's
// drain).
const (
	readyTimeout = 10 * time.Second
	probeTimeout = 2 * time.Second
	stopGrace    = 10 * time.Second
)

// validateNodes fills the topology's defaults in place and returns how
// many backends it expands to, the indices a fault step may name.
func validateNodes(nodes []NodeSpec) (backends int, err error) {
	gateways := 0
	for i := range nodes {
		n := &nodes[i]
		if n.Kind == "" {
			n.Kind = KindLaunch
		}
		switch n.Kind {
		case KindLaunch, KindAttach:
			if n.Addr == "" {
				return 0, fmt.Errorf("campaign: node %d (%s %s): addr required", i, n.Kind, n.Role)
			}
		case KindInproc:
			if n.Addr == "" {
				n.Addr = "127.0.0.1:0"
			}
		default:
			return 0, fmt.Errorf("campaign: node %d: kind %q, want launch, attach or inproc", i, n.Kind)
		}
		count := max(n.Count, 1)
		switch n.Role {
		case roleBackend:
			if n.Endpoint == "" {
				n.Endpoint = "order"
			}
			if n.Endpoint != "order" && n.Endpoint != "error" {
				return 0, fmt.Errorf("campaign: node %d: endpoint %q, want order or error", i, n.Endpoint)
			}
			backends += count
		case RoleGateway:
			gateways++
		default:
			return 0, fmt.Errorf("campaign: node %d: role %q, want backend or gateway", i, n.Role)
		}
		if n.Count < 0 {
			return 0, fmt.Errorf("campaign: node %d: count %d, want >= 0", i, n.Count)
		}
		if n.Count > 1 {
			if _, _, err := net.SplitHostPort(n.Addr); err != nil {
				return 0, fmt.Errorf("campaign: node %d: count %d needs a host:port addr: %v", i, n.Count, err)
			}
		}
		if len(n.Flags) > 0 && n.Kind != KindLaunch {
			return 0, fmt.Errorf("campaign: node %d: flags apply to launch nodes, not %s", i, n.Kind)
		}
		if n.IdleTimeoutMS != 0 && (n.Role != RoleGateway || n.Kind == KindAttach || n.IdleTimeoutMS < 0) {
			return 0, fmt.Errorf("campaign: node %d: idle_timeout_ms %d needs a positive value on a started gateway",
				i, n.IdleTimeoutMS)
		}
		if n.ID == "" {
			n.ID = fmt.Sprintf("%s%d", n.Role, i)
		}
	}
	if gateways == 0 {
		return 0, errors.New("campaign: topology has no gateway node")
	}
	return backends, nil
}

// node is one member of a run's topology: what its spec says, plus the
// process or server the campaign started for it.
type node struct {
	NodeSpec
	key  string // role/id
	addr string // where a client reaches it on this machine

	cmd     *exec.Cmd // a launched node
	logFile *os.File
	logPath string
	waitCh  chan error
	gw      *gateway.Server         // an inproc gateway
	back    *upstream.BackendServer // an inproc backend
}

// expandNodes flattens a validated topology into its nodes: replica i of
// a counted entry listens on port+i (port 0 stays 0) and is named
// "<id>-<i>".
func expandNodes(specs []NodeSpec) []*node {
	var out []*node
	for _, ns := range specs {
		count := max(ns.Count, 1)
		for r := 0; r < count; r++ {
			n := &node{NodeSpec: ns}
			if count > 1 {
				n.ID = fmt.Sprintf("%s-%d", ns.ID, r)
				host, portStr, _ := net.SplitHostPort(ns.Addr)
				if port, err := strconv.Atoi(portStr); err == nil && port != 0 {
					n.Addr = net.JoinHostPort(host, strconv.Itoa(port+r))
				}
			}
			n.key = n.Role + "/" + n.ID
			n.addr = dialable(n.Addr)
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

// startNodes brings the topology up in dependency order — every backend,
// then every gateway, wired to the first order and the first error
// backend — and readiness-probes each node before the next starts, until
// ctx is done. It returns the nodes it started, in order, for stopNodes,
// also on error.
func startNodes(ctx context.Context, nodes []*node, out string, logf func(string, ...any)) ([]*node, error) {
	var started []*node
	var order, errAddr string
	for _, role := range []string{roleBackend, RoleGateway} {
		for _, n := range nodes {
			if n.Role != role {
				continue
			}
			err := n.start(out, order, errAddr, logf)
			if n.cmd != nil || n.gw != nil || n.back != nil {
				started = append(started, n)
			}
			if err == nil {
				err = n.waitReady(ctx)
			}
			if err != nil {
				return started, err
			}
			logf("%s: ready on %s", n.key, n.addr)
			switch {
			case role == roleBackend && n.Endpoint == "order" && order == "":
				order = n.addr
			case role == roleBackend && n.Endpoint == "error" && errAddr == "":
				errAddr = n.addr
			}
		}
	}
	return started, nil
}

// start starts one node by its kind; an attached node only gets logged.
func (n *node) start(out, order, errAddr string, logf func(string, ...any)) error {
	counters := hwcount.Supported() // aongate refuses -counters where it is false
	idle := time.Duration(n.IdleTimeoutMS) * time.Millisecond
	switch {
	case n.Kind == KindAttach:
		logf("%s: attaching to %s", n.key, n.addr)
	case n.Kind == KindInproc && n.Role == roleBackend:
		b, err := upstream.StartBackend(n.Addr, upstream.BackendConfig{Name: n.Endpoint, TraceNode: n.key})
		if err != nil {
			return fmt.Errorf("campaign: %s: %w", n.key, err)
		}
		n.back, n.addr = b, b.Addr().String()
	case n.Kind == KindInproc:
		srv, err := gateway.New(gateway.Config{
			Trace:       true,
			TraceNode:   n.key,
			Counters:    counters,
			IdleTimeout: idle,
			Upstream:    upstream.Config{Order: order, Error: errAddr},
		})
		if err != nil {
			return fmt.Errorf("campaign: %s: %w", n.key, err)
		}
		if err := srv.Start(n.Addr); err != nil {
			srv.Shutdown(context.Background()) // closes the counter groups New opened
			return fmt.Errorf("campaign: %s: %w", n.key, err)
		}
		n.gw, n.addr = srv, srv.Addr().String()
		switch mode, notice := srv.CountersMode(); mode {
		case "runtime-only":
			logf("%s: counters: runtime-only mode: %s", n.key, notice)
		case "hw":
			logf("%s: counters: hw mode (perf_event_open)", n.key)
		}
	case n.Role == roleBackend:
		return n.launch(out, "aonback", "-addr", n.Addr, "-name", n.Endpoint, "-trace-node", n.key)
	default:
		args := []string{"-addr", n.Addr, "-trace", "-trace-node", n.key}
		if counters {
			args = append(args, "-counters")
		}
		if order != "" {
			args = append(args, "-order", order)
		}
		if errAddr != "" {
			args = append(args, "-error", errAddr)
		}
		if idle > 0 {
			args = append(args, "-idle-timeout", idle.String())
		}
		return n.launch(out, "aongate", args...)
	}
	return nil
}

// launch starts the node's process from PATH with stdout and stderr
// captured to <out>/<role>-<id>.log (discarded when out is empty). The
// spec's flags follow args, so they can override them.
func (n *node) launch(out, bin string, args ...string) error {
	cmd := exec.Command(bin, append(args, n.Flags...)...)
	if out != "" {
		n.logPath = filepath.Join(out, sanitize(n.Role+"-"+n.ID)+".log")
		lf, err := os.Create(n.logPath)
		if err != nil {
			return fmt.Errorf("campaign: %s: log: %w", n.key, err)
		}
		cmd.Stdout, cmd.Stderr, n.logFile = lf, lf, lf
	}
	if err := cmd.Start(); err != nil {
		if n.logFile != nil {
			n.logFile.Close()
			os.Remove(n.logPath)
			n.logFile, n.logPath = nil, ""
		}
		return fmt.Errorf("campaign: %s: start %s: %w", n.key, bin, err)
	}
	n.cmd = cmd
	n.waitCh = make(chan error, 1)
	go func() { n.waitCh <- cmd.Wait() }()
	return nil
}

// waitReady polls the node's /stats until it answers, its launched
// process dies (fail fast, with the log tail as diagnosis), readyTimeout
// lapses or ctx is done.
func (n *node) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		if n.cmd != nil {
			select {
			case err := <-n.waitCh:
				n.waitCh <- err // keep it for stop
				return fmt.Errorf("campaign: %s: exited during startup: %v\n--- log tail ---\n%s",
					n.key, err, n.logTail(2048))
			default:
			}
		}
		var probe json.RawMessage
		if err := gateway.GetJSON(n.addr, "/stats", probeTimeout, &probe); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("campaign: %s: not ready on %s after %v\n--- log tail ---\n%s",
				n.key, n.addr, readyTimeout, n.logTail(2048))
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("campaign: %s: start abandoned: %w", n.key, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// stop ends a node the campaign started and returns its exit status: a
// launched process gets SIGTERM (aongate drains, aonback prints its final
// report), then SIGKILL after stopGrace; an inproc gateway drains within
// stopGrace; an inproc backend closes.
func (n *node) stop() error {
	switch {
	case n.gw != nil:
		ctx, cancel := context.WithTimeout(context.Background(), stopGrace)
		defer cancel()
		if err := n.gw.Shutdown(ctx); err != nil {
			return fmt.Errorf("%s: drain: %w", n.key, err)
		}
	case n.back != nil:
		n.back.Close()
	case n.cmd != nil:
		defer n.logFile.Close() // nil-safe: it returns ErrInvalid
		select {
		case err := <-n.waitCh: // already exited: crashed or finished
			return exitErr(n.key, err)
		default:
		}
		n.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-n.waitCh:
			return exitErr(n.key, err)
		case <-time.After(stopGrace):
			n.cmd.Process.Kill()
			<-n.waitCh
			return fmt.Errorf("%s: did not stop within %v: killed", n.key, stopGrace)
		}
	}
	return nil
}

// exitErr names the node of a non-clean exit.
func exitErr(key string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return nil
}

// stopNodes stops the started nodes in reverse start order — gateways
// first, so they drain their in-flight forwards, then backends — and
// reports every non-clean exit as one error.
func stopNodes(started []*node) error {
	var failed []error
	for i := len(started) - 1; i >= 0; i-- {
		if err := started[i].stop(); err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("campaign: %d node(s) exited uncleanly: %w", len(failed), errors.Join(failed...))
	}
	return nil
}

// logTail returns the last maxBytes of a launched node's captured log,
// the diagnosis attached to startup failures.
func (n *node) logTail(maxBytes int) string {
	if n.logPath == "" {
		return ""
	}
	b, err := os.ReadFile(n.logPath)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b[max(0, len(b)-maxBytes):]))
}

// sanitize keeps node-derived file names path-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
