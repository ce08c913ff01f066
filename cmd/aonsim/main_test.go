package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/perf/machine"
	"repro/internal/session"
	"repro/internal/workload"
)

// TestUnknownExperimentRefused: an unknown -exp exits 2, prints nothing
// on stdout and names every valid experiment.
func TestUnknownExperimentRefused(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty: %q", out.String())
	}
	for _, name := range experiments {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("refusal does not name %q: %q", name, errb.String())
		}
	}
}

// mixGolden is what the standalone XML kernel driver printed for 8
// messages before -exp mix replaced it; the instrumented kernels' counts
// and verdicts must not move.
const mixGolden = `processed 8 AONBench messages (5120 bytes each)
  CBR "//quantity/text()" matched: 4/8
  SV schema-valid: 8/8
  parse        instr=  216048 loads=  12872 stores=  20062 branches=  14148 (6.5% branches, 62.7% taken)
  xpath        instr=   69520 loads=  13899 stores=      0 branches=   5970 (8.6% branches, 25.0% taken)
  validate     instr=   85279 loads=   2127 stores=      0 branches=   5366 (6.3% branches, 76.4% taken)
`

func TestMixGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "mix", "-msgs", "8"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if out.String() != mixGolden {
		t.Fatalf("mix output moved:\n got:\n%s\nwant:\n%s", out.String(), mixGolden)
	}
}

func TestMixSmall(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "mix", "-msgs", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"processed 2 AONBench messages", "parse", "xpath", "validate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("mix output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestUtilTable: one row per use case and logical CPU, a column per
// configuration, and "-" where a configuration has no such CPU.
func TestUtilTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "util", "-msgs", "40", "-warmup", "10"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	s := out.String()
	for _, id := range machine.AllConfigs {
		if !strings.Contains(s, string(id)) {
			t.Errorf("util table lacks config %s", id)
		}
	}
	for _, uc := range workload.AllUseCases {
		for _, row := range []string{uc.String() + " cpu0", uc.String() + " cpu1"} {
			if !strings.Contains(s, row) {
				t.Errorf("util table lacks row %q", row)
			}
		}
	}
	if strings.Contains(s, "cpu2") {
		t.Errorf("util table has a third CPU row on two-CPU configurations:\n%s", s)
	}
}

// capacityGolden is what the standalone capacity-model command printed
// for the same inputs before -exp capacity replaced it (banner renamed).
var capacityGolden = map[string]string{
	"demand": `aonsim: worker demand 900us (-demand-us override), target p99 50ms

predicted scaling (p99 target 50ms, 1 backend replica(s))
 width   capacity/s   admissible/s    p99@adm  scaling
     1         1111           1019      50000     1.00
     2         2222           2128      50000     2.00
     4         4444           4349      50000     4.00
`,
	"seed": `aonsim: worker demand 65us (built-in XJ use-case seed), target p99 100ms

predicted scaling (p99 target 100ms, 1 backend replica(s))
 width   capacity/s   admissible/s    p99@adm  scaling
     1        15385          15339     100000     1.00
     2        30769          30723     100000     2.00
     4        61538          61492     100000     4.00
`,
	"replay": `aonsim: worker demand 140us (session min p50), target p99 100ms

replay: model at width 2 vs 4 session samples
   t(ms)  offered/s     meas/s     pred/s    err%   meas-p99   pred-p99    err%
    1100       1200       1200       1200     0.0        900        649    27.9
    1200       8000       8000       8000     0.0       2400        939    60.9
    1300      14600      14000      14286     2.0       9000     322523  3483.6
mean abs error over 3 samples: throughput 0.7%, p99 1190.8%

predicted scaling (p99 target 100ms, 1 backend replica(s))
 width   capacity/s   admissible/s    p99@adm  scaling
     1         7143           7097     100000     1.00
     2        14286          14240     100000     2.00
`,
	"calibration": `aonsim: worker demand 75us (calibration SV), target p99 100ms

predicted scaling (p99 target 100ms, 1 backend replica(s))
 width   capacity/s   admissible/s    p99@adm  scaling
     1        13333          13287     100000     1.00
     2        26667          26621     100000     2.00
     4        53333          53287     100000     4.00
     8       106667         106621     100000     8.00
`,
}

// capacityArtifacts writes a four-sample session CSV (one idle sample,
// one with shed messages, GOMAXPROCS 2) and a calibration artifact with
// an SV live p50 of 75 µs, and returns their paths.
func capacityArtifacts(t *testing.T) (csvPath, calPath string) {
	dir := t.TempDir()
	csvPath, calPath = filepath.Join(dir, "session.csv"), filepath.Join(dir, "cal.json")
	samples := []session.Sample{
		{TMS: 1000, WindowSec: 0.1, GOMAXPROCS: 2, DerivedSource: "model"},
		{TMS: 1100, WindowSec: 0.1, Messages: 120, MsgsPerSec: 1200, LatencyP50US: 180, LatencyP99US: 900, GOMAXPROCS: 2, DerivedSource: "model"},
		{TMS: 1200, WindowSec: 0.1, Messages: 800, MsgsPerSec: 8000, LatencyP50US: 150, LatencyP99US: 2400, GOMAXPROCS: 2, DerivedSource: "model"},
		{TMS: 1300, WindowSec: 0.1, Messages: 1400, MsgsPerSec: 14000, Shed: 60, LatencyP50US: 140, LatencyP99US: 9000, GOMAXPROCS: 2, DerivedSource: "model"},
	}
	var buf bytes.Buffer
	if err := session.WriteCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cal := &harness.Calibration{Config: "2CPm", Entries: map[string]harness.CalibrationEntry{
		"SV": {Samples: 3, LiveSource: "model", CPIScale: 1, MPIScale: 1, BrMPRScale: 1, LiveP50US: 75},
	}}
	if err := cal.WriteFile(calPath); err != nil {
		t.Fatal(err)
	}
	return csvPath, calPath
}

// TestCapacityGolden pins -exp capacity's tables for each demand seed.
func TestCapacityGolden(t *testing.T) {
	csvPath, calPath := capacityArtifacts(t)
	for name, args := range map[string][]string{
		"demand":      {"-demand-us", "900", "-widths", "1,2,4", "-target-p99", "50ms"},
		"seed":        {"-usecase", "XJ", "-widths", "1,2,4"},
		"replay":      {"-csv", csvPath, "-widths", "1,2"},
		"calibration": {"-calibration", calPath, "-usecase", "SV"},
	} {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-exp", "capacity"}, args...), &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, errb.String())
		}
		if out.String() != capacityGolden[name] {
			t.Errorf("%s: output moved:\n got:\n%s\nwant:\n%s", name, out.String(), capacityGolden[name])
		}
	}
}

// TestCapacityRefusals: bad widths, a non-positive p99 target and a
// missing demand seed exit 2 with nothing on stdout.
func TestCapacityRefusals(t *testing.T) {
	_, calPath := capacityArtifacts(t)
	for name, args := range map[string][]string{
		"widths entry":     {"-widths", "1,x"},
		"zero width":       {"-widths", "0,2"},
		"zero target":      {"-target-p99", "0s"},
		"negative target":  {"-target-p99", "-1ms"},
		"no seed":          {"-usecase", "NOPE"},
		"no calibrated uc": {"-calibration", calPath, "-usecase", "CBR"},
		"missing csv":      {"-csv", filepath.Join(t.TempDir(), "absent.csv")},
	} {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-exp", "capacity"}, args...), &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: stdout not empty: %q", name, out.String())
		}
		if !strings.HasPrefix(errb.String(), "aonsim:") {
			t.Errorf("%s: stderr %q", name, errb.String())
		}
	}
}

// TestLiveWritesLoadableCalibration runs -exp live in the runtime-only
// fallback: the artifact holds FR/CBR/SV entries with identity scales
// from model-sourced sessions, and loads back.
func TestLiveWritesLoadableCalibration(t *testing.T) {
	t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")
	path := filepath.Join(t.TempDir(), "cal.json")
	var out, errb bytes.Buffer
	args := []string{"-exp", "live", "-msgs", "20", "-warmup", "10", "-live-duration", "300ms", "-calibration-out", path}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	cal, err := harness.LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Config != string(machine.TwoCPm) || len(cal.Entries) != len(workload.AllUseCases) {
		t.Fatalf("artifact = %+v", cal)
	}
	for _, uc := range workload.AllUseCases {
		e, ok := cal.Entries[uc.String()]
		if !ok {
			t.Fatalf("no %s entry", uc)
		}
		if e.LiveSource != "model" || e.CPIScale != 1 || e.MPIScale != 1 || e.BrMPRScale != 1 {
			t.Errorf("%s: fallback entry not identity: %+v", uc, e)
		}
		if e.SimCPI <= 0 || e.LiveMsgsPerSec <= 0 {
			t.Errorf("%s: entry lacks a prediction or a live rate: %+v", uc, e)
		}
	}
	if !strings.Contains(out.String(), "live source") {
		t.Errorf("live table missing:\n%s", out.String())
	}
}
