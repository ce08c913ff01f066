package harness

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf/counters"
	"repro/internal/workload"
)

// TestCalibrationEntryScales pins the delta arithmetic: hw-sourced live
// readings produce live/sim ratios, model-sourced ones pin to identity
// (the model must not calibrate against itself).
func TestCalibrationEntryScales(t *testing.T) {
	sim := counters.Metrics{CPI: 2.0, L2MPI: 0.4, BrMPR: 1.5}
	e := NewCalibrationEntry(sim, 3.0, 0.2, 3.0, 10, "hw")
	if math.Abs(e.CPIScale-1.5) > 1e-9 || math.Abs(e.MPIScale-0.5) > 1e-9 || math.Abs(e.BrMPRScale-2.0) > 1e-9 {
		t.Fatalf("hw scales wrong: %+v", e)
	}
	e = NewCalibrationEntry(sim, 3.0, 0.2, 3.0, 10, "model")
	if e.CPIScale != 1 || e.MPIScale != 1 || e.BrMPRScale != 1 {
		t.Fatalf("model-sourced entry must be identity: %+v", e)
	}
	// Zero denominators stay identity instead of Inf.
	e = NewCalibrationEntry(counters.Metrics{}, 3.0, 0.2, 3.0, 10, "hw")
	if e.CPIScale != 1 || e.MPIScale != 1 || e.BrMPRScale != 1 {
		t.Fatalf("zero-sim entry must be identity: %+v", e)
	}
}

// TestCalibrationApplyRoundTrip writes, loads, and applies an artifact.
func TestCalibrationApplyRoundTrip(t *testing.T) {
	c := &Calibration{
		Config: "2CPm",
		Entries: map[string]CalibrationEntry{
			"CBR": NewCalibrationEntry(counters.Metrics{CPI: 2, L2MPI: 0.4, BrMPR: 1.5}, 3, 0.2, 3, 12, "hw"),
		},
	}
	path := filepath.Join(t.TempDir(), "calib.json")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != "2CPm" || len(got.Entries) != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	m := got.Apply(workload.CBR, counters.Metrics{CPI: 2, L2MPI: 0.4, BrMPR: 1.5})
	if math.Abs(m.CPI-3) > 1e-9 || math.Abs(m.L2MPI-0.2) > 1e-9 || math.Abs(m.BrMPR-3) > 1e-9 {
		t.Fatalf("applied metrics wrong: %+v", m)
	}
	// Unknown use case passes through.
	orig := counters.Metrics{CPI: 5}
	if got.Apply(workload.FR, orig) != orig {
		t.Fatal("unknown use case must pass through unchanged")
	}
	if got.Identity() {
		t.Fatal("non-unit calibration reported identity")
	}
	// A nil calibration is a no-op, so callers can apply unconditionally.
	var nilC *Calibration
	if nilC.Apply(workload.CBR, orig) != orig {
		t.Fatal("nil calibration must pass through")
	}
}

// TestLoadCalibrationRejectsEmpty refuses artifacts with nothing in them.
func TestLoadCalibrationRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := (&Calibration{Config: "2CPm"}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(path); err == nil {
		t.Fatal("empty calibration accepted")
	}
	if _, err := LoadCalibration(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadCalibrationRejectsUnknownKeys refuses entries Apply would never
// read: the retired per-width "UC@N" keys, names that are not use cases,
// and use-case names not spelled as Apply looks them up.
func TestLoadCalibrationRejectsUnknownKeys(t *testing.T) {
	entry := NewCalibrationEntry(counters.Metrics{CPI: 2}, 3, 0, 0, 4, "hw")
	for _, key := range []string{"CBR@1", "bogus", "cbr", ""} {
		path := filepath.Join(t.TempDir(), "cal.json")
		c := &Calibration{Config: "2CPm", Entries: map[string]CalibrationEntry{"FR": entry, key: entry}}
		if err := c.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCalibration(path)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", key)) {
			t.Fatalf("key %q: err = %v, want a refusal naming the key", key, err)
		}
	}
}
