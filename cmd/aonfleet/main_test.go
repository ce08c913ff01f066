package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
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
// dependency order, runs the config's campaign (one constant FR phase
// per connection count) against it, and checks the one recording: every
// node in session.jsonl with rel_ms >= 0, session.csv with the node,
// role and rel_ms columns ahead of the stock ones, the gateway's
// messages in it, and the fleet total in the report.
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

	// The session and the report exist and are non-empty.
	for _, name := range []string{"session.jsonl", "session.csv", "campaign-report.txt"} {
		if st, err := os.Stat(filepath.Join(out, name)); err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty (err=%v)", name, err)
		}
	}
	report, err := os.ReadFile(filepath.Join(out, "campaign-report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report, []byte("fleet-total(gateways)")) || !strings.Contains(stdout.String(), "fleet-total(gateways)") {
		t.Fatalf("report (file and stdout) lacks fleet-total(gateways):\n%s", report)
	}

	f, err := os.Open(filepath.Join(out, "session.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nodes := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		var row struct {
			Type  string `json:"type"`
			Node  string `json:"node"`
			RelMS int64  `json:"rel_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if row.Type != "sample" {
			continue
		}
		nodes[row.Node] = true
		if row.RelMS < 0 {
			t.Fatalf("row %s", sc.Text())
		}
	}
	for _, want := range []string{"gateway/gateway2", "backend/backend0", "backend/backend1"} {
		if !nodes[want] {
			t.Fatalf("session missing node %s: %v", want, nodes)
		}
	}

	cf, err := os.Open(filepath.Join(out, "session.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	recs, err := csv.NewReader(cf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 4 {
		t.Fatalf("session.csv has %d rows, want >= 3", len(recs)-1)
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	for _, name := range []string{"node", "role", "rel_ms", "t_ms", "messages"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("session.csv header %v lacks %s", recs[0], name)
		}
	}
	var gwMsgs uint64
	for _, r := range recs[1:] {
		if r[col["role"]] != "gateway" {
			continue
		}
		n, err := strconv.ParseUint(r[col["messages"]], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		gwMsgs += n
	}
	if gwMsgs == 0 {
		t.Fatal("the gateway forwarded nothing into the session")
	}
	t.Logf("session: %d rows, %d nodes, gateway msgs %d", len(recs)-1, len(nodes), gwMsgs)
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
