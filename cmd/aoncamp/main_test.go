package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/hwcount"
)

// scalingSpec is the paper's one-unit→two-unit question as a campaign:
// two constant CBR phases that differ only in gomaxprocs.
const scalingSpec = `{
	"name": "scaling",
	"sample_interval_ms": 50,
	"phases": [
		{"name": "p1", "usecase": "CBR", "duration_ms": 300, "conns": 2, "gomaxprocs": 1},
		{"name": "p2", "usecase": "CBR", "duration_ms": 300, "conns": 2, "gomaxprocs": 2}
	]
}`

// TestSelfgateCountersScaling runs aoncamp -selfgate -counters on the
// two-width spec in-process and checks the run in whichever counters
// mode the host grants (CI runs it plain and with AON_NO_PERF=1): two
// phases at their widths, every timeline sample tagged with its phase's
// width and carrying the per-CPU view, one row per gateway read in
// clock order, CPI per phase, throughput in the timeline, and the
// report's scaling and counter columns.
func TestSelfgateCountersScaling(t *testing.T) {
	if !hwcount.Supported() {
		t.Skip("aoncamp -counters is refused where the OS has no perf events")
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "scaling.json")
	if err := os.WriteFile(specPath, []byte(scalingSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	before := runtime.GOMAXPROCS(0)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", specPath, "-selfgate", "-counters", "-out", out}, &stdout, &stderr); code != 0 {
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
	case strings.Contains(errText, "aoncamp: counters: hw mode"):
		mode = "hw"
	case strings.Contains(errText, "aoncamp: counters: runtime-only mode"):
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

// TestCountersNeedSelfgate: -counters configures the in-process gateway,
// so without -selfgate it is refused rather than silently ignored.
func TestCountersNeedSelfgate(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", "x.json", "-counters"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-selfgate") {
		t.Fatalf("refusal does not name -selfgate: %q", stderr.String())
	}
}

// stormSpec is a scripted day in four phases: a constant warmup, a DPI
// ramp, an XJ flash crowd while the order backend errors half its
// requests, and a slow-loris siege whose holds trickle slower than the
// gateway's idle timeout beside two background senders.
const stormSpec = `{
	"name": "storm",
	"seed": 7,
	"sample_interval_ms": 100,
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
// in-process gateway and two self-hosted backends, in the runtime-only
// counters mode: every phase reports, DPI and XJ run through the
// pipeline, both fault steps are acknowledged by the live backend, the
// loris holds are reaped by the idle deadline while the background
// senders keep completing, and session.jsonl carries the gateway's
// phase-tagged rows. AON_CAMPAIGN_OUT keeps the artifacts where CI
// uploads them from.
func TestCampaignStorm(t *testing.T) {
	t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")
	dir := t.TempDir()
	specPath := filepath.Join(dir, "storm.json")
	if err := os.WriteFile(specPath, []byte(stormSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := os.Getenv("AON_CAMPAIGN_OUT")
	if out == "" {
		out = filepath.Join(dir, "out")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-spec", specPath, "-selfgate", "-selfback", "2", "-idle-timeout", "200ms", "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
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

	// The phase-tagged session rows carry load, every row the gateway's.
	rows := sampleRows(t, filepath.Join(out, "session.jsonl"))
	if len(rows) < 4 {
		t.Fatalf("session.jsonl has %d sample rows, want >= 4", len(rows))
	}
	tags := map[string]bool{}
	var loaded bool
	for _, r := range rows {
		if r.Node != "gateway/gw0" || r.Role != "gateway" {
			t.Fatalf("row of another node: %+v", r)
		}
		if r.RelMS < 0 {
			t.Fatalf("rel_ms %d below the first read", r.RelMS)
		}
		loaded = loaded || r.Sample.Messages > 0
		tags[r.Phase] = true
	}
	if !loaded {
		t.Error("no session row carried load")
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
