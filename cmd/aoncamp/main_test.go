package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/hwcount"
	"repro/internal/workload"
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

// bins builds aonback and aongate (once), puts their directory first on
// PATH for the test, where launch nodes are looked up, and returns it.
func bins(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "aoncamp-bin-"); binErr != nil {
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
	t.Setenv("PATH", binDir+string(os.PathListSeparator)+os.Getenv("PATH"))
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

// writeSpec writes a spec, a JSON document or a value to marshal, and
// returns its path.
func writeSpec(t *testing.T, spec any) string {
	t.Helper()
	b, ok := spec.(string)
	if !ok {
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		b = string(enc)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(b), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// scalingSpec is the paper's one-unit→two-unit question as a campaign:
// two constant CBR phases that differ only in gomaxprocs, against an
// in-process gateway.
const scalingSpec = `{
	"name": "scaling",
	"sample_interval_ms": 50,
	"nodes": [{"kind": "inproc", "role": "gateway", "id": "gw0"}],
	"phases": [
		{"name": "p1", "usecase": "CBR", "duration_ms": 300, "conns": 2, "gomaxprocs": 1},
		{"name": "p2", "usecase": "CBR", "duration_ms": 300, "conns": 2, "gomaxprocs": 2}
	]
}`

// TestSelfgateCountersScaling runs aoncamp on the two-width spec over
// its inproc gateway, whose counters are on, and checks the run in
// whichever counters mode the host grants (CI runs it plain and with
// AON_NO_PERF=1): two phases at their widths, every timeline sample
// tagged with its phase's width and carrying the per-CPU view, one row
// per gateway read in clock order, CPI per phase, throughput in the
// timeline, and the report's scaling and counter columns.
func TestSelfgateCountersScaling(t *testing.T) {
	if !hwcount.Supported() {
		t.Skip("a started gateway runs counters only where the OS has perf events")
	}
	specPath := writeSpec(t, scalingSpec)
	out := filepath.Join(t.TempDir(), "out")
	before := runtime.GOMAXPROCS(0)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-spec", specPath, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("GOMAXPROCS %d after the run, want %d restored", got, before)
	}

	var res campaign.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not the result JSON: %v\n%s", err, stdout.String())
	}
	if len(res.Phases) != 2 {
		t.Fatalf("%d phases, want 2", len(res.Phases))
	}
	for _, p := range res.Phases {
		if p.OK == 0 || p.OK != p.GwMessages {
			t.Fatalf("phase %s: client ok %d, gateway messages %d, want equal and > 0", p.Name, p.OK, p.GwMessages)
		}
	}

	// The counters mode, as the command announces it.
	errText := stderr.String()
	var mode string
	switch {
	case strings.Contains(errText, "aoncamp: gateway/gw0: counters: hw mode"):
		mode = "hw"
	case strings.Contains(errText, "aoncamp: gateway/gw0: counters: runtime-only mode"):
		mode = "runtime-only"
		if !strings.Contains(errText, "runtime-metrics-only") {
			t.Fatalf("runtime-only notice lacks runtime-metrics-only:\n%s", errText)
		}
	default:
		t.Fatalf("no counters mode announced:\n%s", errText)
	}
	t.Logf("counters mode: %s", mode)

	// Every timeline sample carries its phase's width, a counter view and
	// the per-CPU view, and is later than the one before: the rows are one
	// gateway's reads (the first, the phase-start read, can land in the
	// in-process gateway's first millisecond, t_ms 0). Each phase's mean
	// CPI is positive, and some window saw the load.
	want := map[string]int{"p1": 1, "p2": 2}
	cpi, n := map[string]float64{}, map[string]int{}
	rows := sampleRows(t, filepath.Join(out, "session.jsonl"))
	var sawMsgs bool
	for i, row := range rows {
		s := row.Sample
		if s.TMS < 0 || (i > 0 && s.TMS <= rows[i-1].Sample.TMS) {
			t.Errorf("row %d: t_ms %d after %d", i, s.TMS, rows[max(i-1, 0)].Sample.TMS)
		}
		if s.GOMAXPROCS != want[row.Phase] {
			t.Errorf("phase %s sample at gomaxprocs %d, want %d", row.Phase, s.GOMAXPROCS, want[row.Phase])
		}
		if s.DerivedSource != "hw" && s.DerivedSource != "model" {
			t.Errorf("phase %s sample without a counter view: %+v", row.Phase, s)
		}
		if mode == "runtime-only" && s.DerivedSource != "model" {
			t.Errorf("runtime-only sample with derived_source %q", s.DerivedSource)
		}
		if len(s.CPUs) == 0 {
			t.Errorf("phase %s sample without per-CPU entries: %+v", row.Phase, s)
		}
		for _, c := range s.CPUs {
			if c.CPI <= 0 || (c.DerivedSource != "hw" && c.DerivedSource != "model") {
				t.Errorf("phase %s CPU entry without a counter view: %+v", row.Phase, c)
			}
			if mode == "runtime-only" && c.DerivedSource != "model" {
				t.Errorf("runtime-only CPU entry with derived_source %q", c.DerivedSource)
			}
		}
		cpi[row.Phase] += s.CPI
		n[row.Phase]++
		sawMsgs = sawMsgs || s.Messages > 0
	}
	if len(rows) < 2 || !sawMsgs {
		t.Errorf("%d timeline samples (want >= 2), throughput seen: %v", len(rows), sawMsgs)
	}
	for phase := range want {
		if n[phase] == 0 || cpi[phase] <= 0 {
			t.Errorf("phase %s: %d samples, CPI sum %v, want samples with CPI > 0", phase, n[phase], cpi[phase])
		}
	}

	// The report carries the scaling view with the counter columns, and
	// the model-prediction footer when the derived values are modelled.
	report, err := os.ReadFile(filepath.Join(out, "campaign-report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"procs", "ok/s", "p50us", "p99us", "shed", "scale", "cpi", "brmpr%", "gc%"} {
		if !bytes.Contains(report, []byte(col)) {
			t.Errorf("report lacks the %s column:\n%s", col, report)
		}
	}
	if mode == "runtime-only" && !bytes.Contains(report, []byte("* model prediction")) {
		t.Errorf("runtime-only report lacks the model-prediction footer:\n%s", report)
	}
}

// stormSpec is a scripted day in four phases, over an in-process
// gateway and its two in-process backends: a constant warmup, a DPI
// ramp, an XJ flash crowd while the order backend errors half its
// requests, and a slow-loris siege whose holds trickle slower than the
// gateway's idle timeout beside two background senders.
const stormSpec = `{
	"name": "storm",
	"seed": 7,
	"sample_interval_ms": 100,
	"nodes": [
		{"kind": "inproc", "role": "backend", "id": "order", "endpoint": "order"},
		{"kind": "inproc", "role": "backend", "id": "error", "endpoint": "error"},
		{"kind": "inproc", "role": "gateway", "id": "gw0", "idle_timeout_ms": 200}
	],
	"phases": [
		{"name": "warmup",   "shape": "constant",  "usecase": "FR",  "duration_ms": 1200, "conns": 2},
		{"name": "ramp-dpi", "shape": "ramp",      "usecase": "DPI", "duration_ms": 1500, "conns": 1, "conns_to": 6},
		{"name": "flash-xj", "shape": "flash",     "usecase": "XJ",  "duration_ms": 2000, "conns": 1,
		 "burst_conns": 6, "burst_ms": 500, "decay_ms": 300,
		 "faults": [
			{"at_ms": 300,  "backend": 0, "fault": {"error_rate": 0.5}},
			{"at_ms": 1200, "backend": 0, "fault": {"clear": true}}
		 ]},
		{"name": "siege", "shape": "slowloris", "usecase": "FR", "duration_ms": 1500,
		 "conns": 4, "background_conns": 2, "trickle_interval_ms": 600}
	]
}`

// TestCampaignStorm runs the storm in one aoncamp command against its
// in-process gateway and backends, in the runtime-only counters mode:
// every phase reports, DPI and XJ run through the pipeline, both fault
// steps are acknowledged by the live backend, the loris holds are reaped
// by the idle deadline while the background senders keep completing,
// and session.jsonl carries every node's phase-tagged rows, the
// gateway's with load. AON_CAMPAIGN_OUT keeps the artifacts where CI
// uploads them from.
func TestCampaignStorm(t *testing.T) {
	t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")
	specPath := writeSpec(t, stormSpec)
	out := os.Getenv("AON_CAMPAIGN_OUT")
	if out == "" {
		out = filepath.Join(t.TempDir(), "out")
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-spec", specPath, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}

	// Per-phase report rows plus the fault log and the loris line.
	report, err := os.ReadFile(filepath.Join(out, "campaign-report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"warmup", "ramp-dpi", "flash-xj", "siege", "fault log", "loris"} {
		if !bytes.Contains(report, []byte(want)) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}

	// The result file and stdout carry the same result.
	resultJSON, err := os.ReadFile(filepath.Join(out, "campaign-result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(resultJSON), bytes.TrimSpace(stdout.Bytes())) {
		t.Errorf("stdout differs from campaign-result.json")
	}
	var res campaign.Result
	if err := json.Unmarshal(resultJSON, &res); err != nil {
		t.Fatal(err)
	}
	phases := map[string]campaign.PhaseReport{}
	for _, p := range res.Phases {
		phases[p.Name] = p
	}
	if len(phases) != 4 {
		t.Fatalf("phases %v, want 4", phases)
	}
	if w := phases["warmup"]; w.OK == 0 || w.Forwarded == 0 {
		t.Errorf("warmup: ok %d forwarded %d, want both > 0", w.OK, w.Forwarded)
	}
	if r := phases["ramp-dpi"]; r.UseCase != "DPI" || r.OK == 0 {
		t.Errorf("ramp-dpi: usecase %q ok %d, want DPI and > 0", r.UseCase, r.OK)
	}
	// XJ really translated through the pipeline during the flash.
	if f := phases["flash-xj"]; f.Translated == 0 || f.FaultSteps != 2 {
		t.Errorf("flash-xj: translated %d fault steps %d, want > 0 and 2", f.Translated, f.FaultSteps)
	}
	// The fault storm was acknowledged by the live backend, then cleared.
	if len(res.Faults) != 2 {
		t.Fatalf("faults %+v, want 2", res.Faults)
	}
	if f := res.Faults[0]; f.Err != "" || f.State == nil || !f.State.Active {
		t.Errorf("first fault step %+v, want acknowledged active", f)
	}
	if f := res.Faults[1]; f.State == nil || f.State.Active {
		t.Errorf("clearing fault step %+v, want acknowledged inactive", f)
	}
	// Slow-loris holds were reaped by the idle deadline while the
	// background senders kept completing.
	if s := phases["siege"]; s.LorisHeld == 0 || s.GwIdleTimeouts == 0 || s.OK == 0 {
		t.Errorf("siege: loris held %d, gateway idle reaps %d, background ok %d; want all > 0",
			s.LorisHeld, s.GwIdleTimeouts, s.OK)
	}
	if res.Samples == 0 {
		t.Error("no recorder samples")
	}

	// The phase-tagged session rows are the spec's nodes', and the
	// gateway's carry load.
	rows := sampleRows(t, filepath.Join(out, "session.jsonl"))
	if len(rows) < 4 {
		t.Fatalf("session.jsonl has %d sample rows, want >= 4", len(rows))
	}
	roles := map[string]string{"gateway/gw0": "gateway", "backend/order": "backend", "backend/error": "backend"}
	tags := map[string]bool{}
	var loaded bool
	for _, r := range rows {
		if roles[r.Node] == "" || roles[r.Node] != r.Role {
			t.Fatalf("row of a node the spec does not name: %+v", r)
		}
		if r.RelMS < 0 {
			t.Fatalf("rel_ms %d below the first read", r.RelMS)
		}
		loaded = loaded || (r.Role == "gateway" && r.Sample.Messages > 0)
		tags[r.Phase] = true
	}
	if !loaded {
		t.Error("no gateway row carried load")
	}
	if !tags["warmup"] || !tags["siege"] {
		t.Errorf("phase tags %v lack warmup or siege", tags)
	}
}

// sampleRows loads the sample rows of a session.jsonl, skipping the
// phase events.
func sampleRows(t *testing.T, path string) []campaign.Row {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []campaign.Row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row campaign.Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if row.Type == "sample" {
			rows = append(rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFleetCampaignSmoke launches a 1-gateway/2-backend topology in
// dependency order with the trace plane on, runs the spec's campaign
// (one constant FR phase per connection count) against it, and checks
// the one recording: session.jsonl the only session file, every node in
// it with rel_ms >= 0, the gateway's messages in it, every backend row
// with shed 0, the fleet total in the report (on stderr, with the result
// JSON on stdout), and the trace report over the pulled spans with a
// cross-node trace in it.
func TestFleetCampaignSmoke(t *testing.T) {
	bins(t)
	addrs := freePorts(t, 3)
	// AON_FLEET_OUT keeps the artifacts where CI uploads them from.
	out := os.Getenv("AON_FLEET_OUT")
	if out == "" {
		out = filepath.Join(t.TempDir(), "fleet-out")
	}
	path := writeSpec(t, map[string]any{
		"sample_interval_ms": 100,
		"trace_every":        16,
		"nodes": []map[string]any{
			{"role": "backend", "endpoint": "order", "addr": addrs[0]},
			{"role": "backend", "endpoint": "error", "addr": addrs[1]},
			{"role": "gateway", "addr": addrs[2]},
		},
		"phases": []map[string]any{
			{"name": "c1", "usecase": "FR", "duration_ms": 1000, "conns": 1},
			{"name": "c2", "usecase": "FR", "duration_ms": 1000, "conns": 2},
			{"name": "c4", "usecase": "FR", "duration_ms": 1000, "conns": 4},
		},
	})
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-spec", path, "-out", out}, &stdout, &stderr); code != 0 {
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
	if !bytes.Contains(report, []byte("fleet-total(gateways)")) || !strings.Contains(stderr.String(), "fleet-total(gateways)") {
		t.Fatalf("report (file and stderr) lacks fleet-total(gateways):\n%s", report)
	}
	resultJSON, err := os.ReadFile(filepath.Join(out, "campaign-result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(resultJSON), bytes.TrimSpace(stdout.Bytes())) {
		t.Errorf("stdout differs from campaign-result.json")
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

	nodes := map[string]bool{}
	rows := sampleRows(t, filepath.Join(out, "session.jsonl"))
	var gwMsgs uint64
	for _, row := range rows {
		nodes[row.Node] = true
		if row.RelMS < 0 {
			t.Fatalf("row %+v", row)
		}
		switch row.Role {
		case "gateway":
			gwMsgs += row.Sample.Messages
		case "backend":
			if row.Sample.Shed != 0 {
				t.Fatalf("backend row with shed: %+v", row)
			}
		}
	}
	for _, want := range []string{"gateway/gateway2", "backend/backend0", "backend/backend1"} {
		if !nodes[want] {
			t.Fatalf("session missing node %s: %v", want, nodes)
		}
	}
	if len(rows) < 3 {
		t.Fatalf("session.jsonl has %d sample rows, want >= 3", len(rows))
	}
	if gwMsgs == 0 {
		t.Fatal("the gateway forwarded nothing into the session")
	}
	t.Logf("session: %d rows, %d nodes, gateway msgs %d", len(rows), len(nodes), gwMsgs)
}

// TestFleetNodeCannotStart: a node that cannot start (an unknown flag)
// fails the run loudly — a non-zero exit naming the startup exit.
func TestFleetNodeCannotStart(t *testing.T) {
	bins(t)
	addrs := freePorts(t, 2)
	path := writeSpec(t, map[string]any{
		"nodes": []map[string]any{
			{"role": "backend", "endpoint": "order", "addr": addrs[0], "flags": []string{"-bogus-flag"}},
			{"role": "gateway", "addr": addrs[1]},
		},
		"phases": []map[string]any{
			{"name": "c1", "usecase": "FR", "duration_ms": 500, "conns": 1},
		},
	})
	var stdout, stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "fleet-bad-out")
	if code := run(context.Background(), []string{"-spec", path, "-out", out}, &stdout, &stderr); code == 0 {
		t.Fatalf("topology with a broken node exited 0:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "exited during startup") {
		t.Fatalf("stderr does not name the startup exit:\n%s", stderr.String())
	}
}

// TestBadSpecLaunchesNothing: the whole spec is validated before any
// node starts, so a launch topology whose phase names an unknown shape
// exits 2 naming the shape, with no node log in -out.
func TestBadSpecLaunchesNothing(t *testing.T) {
	bins(t)
	addrs := freePorts(t, 2)
	path := writeSpec(t, map[string]any{
		"nodes": []map[string]any{
			{"role": "backend", "addr": addrs[0]},
			{"role": "gateway", "addr": addrs[1]},
		},
		"phases": []map[string]any{{"name": "c1", "shape": "sawtooth", "duration_ms": 500, "conns": 1}},
	})
	out := filepath.Join(t.TempDir(), "out")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-spec", path, "-out", out}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown shape "sawtooth"`) {
		t.Fatalf("refusal does not name the shape:\n%s", stderr.String())
	}
	if logs, _ := filepath.Glob(filepath.Join(out, "*.log")); len(logs) > 0 {
		t.Fatalf("node logs in -out after a refused spec: %v", logs)
	}
}

// startNode runs one node binary by hand, as an attached node is run,
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

// TestFleetForwardingUseCases attaches a campaign to a hand-started
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
	path := writeSpec(t, map[string]any{
		"sample_interval_ms": 100,
		"nodes": []map[string]any{
			{"kind": "attach", "role": "backend", "endpoint": "order", "addr": addrs[0]},
			{"kind": "attach", "role": "backend", "endpoint": "error", "addr": addrs[1]},
			{"kind": "attach", "role": "gateway", "addr": addrs[2]},
		},
		"phases": phases,
	})
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-spec", path, "-out", out}, &stdout, &stderr); code != 0 {
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

// TestPassiveRecording: a spec with nodes and no phases records until it
// is stopped. Attached to a gateway the test loads itself, the run
// exits 0 when its context ends, and session.jsonl holds the gateway's
// rows in clock order, with the load in them.
func TestPassiveRecording(t *testing.T) {
	srv, err := gateway.New(gateway.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	path := writeSpec(t, map[string]any{
		"sample_interval_ms": 50,
		"nodes":              []map[string]any{{"kind": "attach", "role": "gateway", "id": "gw0", "addr": srv.Addr().String()}},
	})
	out := filepath.Join(t.TempDir(), "rec")

	ctx, stop := context.WithCancel(context.Background())
	var stdout, stderr bytes.Buffer
	code := make(chan int, 1)
	go func() { code <- run(ctx, []string{"-spec", path, "-out", out}, &stdout, &stderr) }()

	cl, err := gateway.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, end := 0, time.Now().Add(500*time.Millisecond); time.Now().Before(end); i++ {
		if _, err := cl.Do(workload.HTTPRequestSeeded(i, workload.FR, 512, 1), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if c := <-code; c != 0 {
		t.Fatalf("exit %d:\n%s", c, stderr.String())
	}

	rows := sampleRows(t, filepath.Join(out, "session.jsonl"))
	var loaded bool
	for i, r := range rows {
		if r.Node != "gateway/gw0" || r.Phase != "" {
			t.Fatalf("row %+v, want gateway/gw0's with no phase", r)
		}
		if i > 0 && r.TMS <= rows[i-1].TMS {
			t.Fatalf("row %d: t_ms %d after %d", i, r.TMS, rows[i-1].TMS)
		}
		loaded = loaded || r.Sample.Messages > 0
	}
	if len(rows) < 2 || !loaded {
		t.Fatalf("%d gateway rows (want >= 2), load seen: %v", len(rows), loaded)
	}
}
