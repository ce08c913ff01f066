package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/perf/machine"
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
