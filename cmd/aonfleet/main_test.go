package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/gateway"
)

// binDir holds aonback and aongate, built once for the whole package.
var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// bins builds aonback and aongate (once) and returns their directory.
func bins(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "aonfleet-bin-"); binErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir, "repro/cmd/aonback", "repro/cmd/aongate").CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binDir
}

// freePorts returns n loopback addresses free at the time of the call.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// writeConfig writes a fleet config and returns its path.
func writeConfig(t *testing.T, cfg map[string]any) string {
	t.Helper()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFleetCampaignSmoke launches a 1-gateway/2-backend topology in
// dependency order with the trace plane on, runs the config's campaign
// (one constant FR phase per connection count) against it, and checks
// the one recording: session.jsonl the only session file, every node in
// it with rel_ms >= 0, the gateway's messages in it, every backend row
// with shed 0, the fleet total in the report, and the trace report over
// the pulled spans with a cross-node trace in it.
func TestFleetCampaignSmoke(t *testing.T) {
	bin := bins(t)
	addrs := freePorts(t, 3)
	// AON_FLEET_OUT keeps the artifacts where CI uploads them from.
	out := os.Getenv("AON_FLEET_OUT")
	if out == "" {
		out = filepath.Join(t.TempDir(), "fleet-out")
	}
	path := writeConfig(t, map[string]any{
		"out_dir":            out,
		"bin_dir":            bin,
		"scrape_interval_ms": 100,
		"trace":              true,
		"nodes": []map[string]any{
			{"role": "backend", "endpoint": "order", "addr": addrs[0]},
			{"role": "backend", "endpoint": "error", "addr": addrs[1]},
			{"role": "gateway", "addr": addrs[2]},
		},
		"campaign": map[string]any{"phases": []map[string]any{
			{"name": "c1", "usecase": "FR", "duration_ms": 1000, "conns": 1},
			{"name": "c2", "usecase": "FR", "duration_ms": 1000, "conns": 2},
			{"name": "c4", "usecase": "FR", "duration_ms": 1000, "conns": 4},
		}},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-config", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}

	// The session, the reports and the spans exist and are non-empty.
	for _, name := range []string{"session.jsonl", "campaign-report.txt", "traces.jsonl", "trace-report.txt"} {
		if st, err := os.Stat(filepath.Join(out, name)); err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty (err=%v)", name, err)
		}
	}
	if csvs, _ := filepath.Glob(filepath.Join(out, "*.csv")); len(csvs) > 0 {
		t.Fatalf("CSV artifacts beside session.jsonl: %v", csvs)
	}
	report, err := os.ReadFile(filepath.Join(out, "campaign-report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report, []byte("fleet-total(gateways)")) || !strings.Contains(stdout.String(), "fleet-total(gateways)") {
		t.Fatalf("report (file and stdout) lacks fleet-total(gateways):\n%s", report)
	}
	traceReport, err := os.ReadFile(filepath.Join(out, "trace-report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(traceReport, []byte("assembled traces:")) {
		t.Fatalf("trace report lacks its trace count:\n%s", traceReport)
	}
	if m := regexp.MustCompile(`cross-node traces: ([0-9]+)/`).FindSubmatch(traceReport); m == nil || string(m[1]) == "0" {
		t.Fatalf("trace report names no cross-node trace:\n%s", traceReport)
	}

	f, err := os.Open(filepath.Join(out, "session.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nodes := map[string]bool{}
	var rows int
	var gwMsgs uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		var row campaign.Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if row.Type != "sample" {
			continue
		}
		rows++
		nodes[row.Node] = true
		if row.RelMS < 0 {
			t.Fatalf("row %s", sc.Text())
		}
		switch row.Role {
		case "gateway":
			gwMsgs += row.Sample.Messages
		case "backend":
			if row.Sample.Shed != 0 {
				t.Fatalf("backend row with shed: %s", sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gateway/gateway2", "backend/backend0", "backend/backend1"} {
		if !nodes[want] {
			t.Fatalf("session missing node %s: %v", want, nodes)
		}
	}
	if rows < 3 {
		t.Fatalf("session.jsonl has %d sample rows, want >= 3", rows)
	}
	if gwMsgs == 0 {
		t.Fatal("the gateway forwarded nothing into the session")
	}
	t.Logf("session: %d rows, %d nodes, gateway msgs %d", rows, len(nodes), gwMsgs)
}

// TestFleetNodeCannotStart: a node that cannot start (an unknown flag)
// fails the fleet loudly — a non-zero exit naming the startup exit.
func TestFleetNodeCannotStart(t *testing.T) {
	bin := bins(t)
	addrs := freePorts(t, 2)
	path := writeConfig(t, map[string]any{
		"out_dir":          filepath.Join(t.TempDir(), "fleet-bad-out"),
		"bin_dir":          bin,
		"ready_timeout_ms": 3000,
		"nodes": []map[string]any{
			{"role": "backend", "endpoint": "order", "addr": addrs[0], "flags": []string{"-bogus-flag"}},
			{"role": "gateway", "addr": addrs[1]},
		},
		"campaign": map[string]any{"phases": []map[string]any{
			{"name": "c1", "usecase": "FR", "duration_ms": 500, "conns": 1},
		}},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-config", path}, &stdout, &stderr); code == 0 {
		t.Fatalf("fleet with a broken node exited 0:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "exited during startup") {
		t.Fatalf("stderr does not name the startup exit:\n%s", stderr.String())
	}
}

// startNode runs one fleet binary by hand, as an attached node is run,
// and stops it with SIGTERM at cleanup. Its output goes to the test log
// on failure.
func startNode(t *testing.T, bin string, args ...string) {
	t.Helper()
	var log bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("%s: %v\n%s", filepath.Base(bin), err, log.String())
		}
	})
}

// TestFleetForwardingUseCases attaches a fleet to a hand-started
// forwarding topology — aongate with -order/-error over two aonback —
// and runs one constant phase per use case, FR, CBR, SV, DPI and XJ,
// through the gateway. Every phase is answered in full with no shed or
// error, the phases' gateway deltas add up to the gateway's own message
// count, XJ translates every message, and the gateway, read live after
// the run, forwarded over pooled keep-alive connections without a
// failure.
func TestFleetForwardingUseCases(t *testing.T) {
	bin := bins(t)
	addrs := freePorts(t, 3)
	startNode(t, filepath.Join(bin, "aonback"), "-addr", addrs[0], "-name", "order")
	startNode(t, filepath.Join(bin, "aonback"), "-addr", addrs[1], "-name", "error")
	startNode(t, filepath.Join(bin, "aongate"), "-addr", addrs[2], "-order", addrs[0], "-error", addrs[1])

	var phases []map[string]any
	for _, uc := range []string{"FR", "CBR", "SV", "DPI", "XJ"} {
		phases = append(phases, map[string]any{"name": uc, "usecase": uc, "duration_ms": 400, "conns": 2})
	}
	out := filepath.Join(t.TempDir(), "fleet-out")
	path := writeConfig(t, map[string]any{
		"out_dir":            out,
		"scrape_interval_ms": 100,
		"nodes": []map[string]any{
			{"role": "backend", "endpoint": "order", "addr": addrs[0], "attach": true},
			{"role": "backend", "endpoint": "error", "addr": addrs[1], "attach": true},
			{"role": "gateway", "addr": addrs[2], "attach": true},
		},
		"campaign": map[string]any{"phases": phases},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-config", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}

	b, err := os.ReadFile(filepath.Join(out, "campaign-result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res campaign.Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	var stats gateway.Snapshot // the attached gateway, still running
	if err := gateway.GetJSON(addrs[2], "/stats", 5*time.Second, &stats); err != nil {
		t.Fatal(err)
	}

	var gwMsgs uint64
	for _, p := range res.Phases {
		if p.Sent == 0 || p.OK != p.Sent || p.GwMessages != p.Sent {
			t.Errorf("phase %s: sent %d, ok %d, gateway messages %d; want equal and > 0", p.Name, p.Sent, p.OK, p.GwMessages)
		}
		if p.Shed != 0 || p.HTTPErrors != 0 || p.NetErrors != 0 {
			t.Errorf("phase %s: shed %d, http errors %d, net errors %d; want none", p.Name, p.Shed, p.HTTPErrors, p.NetErrors)
		}
		if n := stats.LatencyByUseCase[p.UseCase].Count; n < p.OK {
			t.Errorf("phase %s: gateway latency_by_usecase count %d, want >= the phase's %d answers", p.Name, n, p.OK)
		}
		if p.UseCase == "XJ" && (p.Translated != p.OK || stats.Translated < p.OK) {
			t.Errorf("XJ: %d translated of %d, gateway translated %d", p.Translated, p.OK, stats.Translated)
		}
		gwMsgs += p.GwMessages
	}
	if len(res.Phases) != 5 || gwMsgs != stats.Messages {
		t.Errorf("%d phases, their gateway messages sum to %d, the gateway counts %d; want 5 phases and equal",
			len(res.Phases), gwMsgs, stats.Messages)
	}
	order, okOrder := stats.Upstream["order"]
	if _, okErr := stats.Upstream["error"]; !okOrder || !okErr {
		t.Fatalf("/stats upstream section lacks order or error: %+v", stats.Upstream)
	}
	if order.Forwarded == 0 || order.Failures != 0 || order.PoolHits == 0 {
		t.Errorf("order backend: forwarded %d, failures %d, pool hits %d; want > 0, 0, > 0",
			order.Forwarded, order.Failures, order.PoolHits)
	}
}
