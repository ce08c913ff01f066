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
	"repro/internal/hwcount"
	"repro/internal/session"
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
// width and carrying the per-CPU view, CPI per phase, throughput in the
// timeline, the session CSV, and the report's scaling and counter
// columns.
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
	// the per-CPU view; each phase's mean CPI is positive, and some
	// window saw the load.
	want := map[string]int{"p1": 1, "p2": 2}
	cpi, n := map[string]float64{}, map[string]int{}
	var samples int
	var sawMsgs bool
	f, err := os.Open(filepath.Join(out, "session.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type   string         `json:"type"`
			Phase  string         `json:"phase"`
			Sample session.Sample `json:"sample"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != "sample" {
			continue
		}
		s := ev.Sample
		if s.GOMAXPROCS != want[ev.Phase] {
			t.Errorf("phase %s sample at gomaxprocs %d, want %d", ev.Phase, s.GOMAXPROCS, want[ev.Phase])
		}
		if s.DerivedSource != "hw" && s.DerivedSource != "model" {
			t.Errorf("phase %s sample without a counter view: %+v", ev.Phase, s)
		}
		if mode == "runtime-only" && s.DerivedSource != "model" {
			t.Errorf("runtime-only sample with derived_source %q", s.DerivedSource)
		}
		if len(s.CPUs) == 0 {
			t.Errorf("phase %s sample without per-CPU entries: %+v", ev.Phase, s)
		}
		for _, c := range s.CPUs {
			if c.CPI <= 0 || (c.DerivedSource != "hw" && c.DerivedSource != "model") {
				t.Errorf("phase %s CPU entry without a counter view: %+v", ev.Phase, c)
			}
			if mode == "runtime-only" && c.DerivedSource != "model" {
				t.Errorf("runtime-only CPU entry with derived_source %q", c.DerivedSource)
			}
		}
		cpi[ev.Phase] += s.CPI
		n[ev.Phase]++
		samples++
		sawMsgs = sawMsgs || s.Messages > 0
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if samples < 2 || !sawMsgs {
		t.Errorf("%d timeline samples (want >= 2), throughput seen: %v", samples, sawMsgs)
	}

	// The session CSV: a row per sample, each with its time (ReadCSV
	// refuses an empty t_ms; the rows are one gateway's reads, so each is
	// later than the one before — the first, the phase-start read, can
	// land in the in-process gateway's first millisecond, t_ms 0) and the
	// gateway's width.
	cf, err := os.Open(filepath.Join(out, "session.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	rows, err := session.ReadCSV(cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Errorf("session.csv has %d rows, want >= 2", len(rows))
	}
	if len(rows) != samples {
		t.Errorf("session.csv has %d rows, session.jsonl %d samples", len(rows), samples)
	}
	for i, r := range rows {
		if r.TMS < 0 || (i > 0 && r.TMS <= rows[i-1].TMS) || r.GOMAXPROCS < 1 {
			t.Errorf("session.csv row %d: t_ms %d, gomaxprocs %d", i, r.TMS, r.GOMAXPROCS)
		}
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
