package harness

import (
	"strings"
	"testing"

	"repro/internal/netperf"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// Small experiment sizes keep the integration tests quick; aonsim runs
// the full-size grid at DefaultAONOpts and DefaultNetperfOpts.
var testNetperfOpts = NetperfOpts{WarmupMs: 1, MeasureMs: 4}
var testAONOpts = AONOpts{WarmupMsgs: 60, MeasureMsgs: 260, Window: 32}

func TestRunNetperfBasic(t *testing.T) {
	r := runNetperf(Cell{Config: machine.OneCPm, Netperf: true, Mode: netperf.Loopback}, testNetperfOpts)
	if r.Mbps <= 0 {
		t.Fatal("no throughput")
	}
	if r.Metrics.CPI <= 0 {
		t.Fatal("no CPI")
	}
	if r.Config != machine.OneCPm || r.Mode != netperf.Loopback {
		t.Fatal("result labels wrong")
	}
}

func TestRunAONBasic(t *testing.T) {
	r, err := RunAON(Cell{Config: machine.TwoCPm, UseCase: workload.CBR}, AONOpts{WarmupMsgs: 20, MeasureMsgs: 60, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mbps <= 0 || r.MsgPerSec <= 0 {
		t.Fatalf("throughput = %v / %v", r.Mbps, r.MsgPerSec)
	}
	if r.Stats.ParseErrors != 0 {
		t.Fatalf("parse errors: %d", r.Stats.ParseErrors)
	}
}

// TestRunAONUtilization checks the per-CPU window counters RunAON
// returns: one set per logical CPU, each busy for a share of its
// clockticks in (0, 1], on a one-CPU and a two-logical-CPU configuration.
func TestRunAONUtilization(t *testing.T) {
	for _, id := range []machine.ConfigID{machine.OneCPm, machine.TwoLPx} {
		for _, uc := range []workload.UseCase{workload.FR, workload.SV} {
			r, err := RunAON(Cell{Config: id, UseCase: uc}, AONOpts{WarmupMsgs: 20, MeasureMsgs: 60, Window: 16})
			if err != nil {
				t.Fatal(err)
			}
			if want := len(machine.New(id, machine.Options{}).LCPUs); len(r.CPUs) != want {
				t.Fatalf("%s %s: %d per-CPU sets, want %d", id, uc, len(r.CPUs), want)
			}
			for cpu, cs := range r.CPUs {
				if u := float64(cs.Get(counters.BusyCycles)) / float64(cs.Get(counters.Clockticks)); u <= 0 || u > 1 {
					t.Errorf("%s %s cpu%d utilization %v, want (0, 1]", id, uc, cpu, u)
				}
			}
		}
	}
}

// TestNetperfShapes runs the full baseline grid once and asserts every
// Figure 2 / Table 3 shape relation.
func TestNetperfShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in short mode")
	}
	g, err := RunGrid(NetperfCells(machine.AllConfigs), AONOpts{}, testNetperfOpts)
	if err != nil {
		t.Fatal(err)
	}
	mx := g.NetperfMatrix()
	checks := append(Figure2Checks(mx), Table3Checks(mx)...)
	for _, c := range checks {
		if !c.OK {
			t.Errorf("shape check failed: %s (%s)", c.Name, c.Note)
		}
	}
	// Rendering must include every configuration.
	out := Figure2Table(mx).Render()
	for _, id := range machine.AllConfigs {
		if !strings.Contains(out, string(id)) {
			t.Errorf("figure 2 table missing %s", id)
		}
	}
	for _, tb := range Table3Tables(mx) {
		if !strings.Contains(tb.Render(), "CPI") {
			t.Error("table 3 missing CPI rows")
		}
	}
}

// TestAONShapes runs the full application grid once and asserts the
// Figure 3-5 / Table 4-6 shape relations.
func TestAONShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in short mode")
	}
	g, err := RunGrid(AONCells(workload.AllUseCases, machine.AllConfigs), testAONOpts, NetperfOpts{})
	if err != nil {
		t.Fatal(err)
	}
	mx := g.AONMatrix()
	groups := map[string][]ShapeCheck{
		"figure3": Figure3Checks(mx),
		"table4":  Table4Checks(mx),
		"figure4": Figure4Checks(mx),
		"figure5": Figure5Checks(mx),
		"table5":  Table5Checks(mx),
		"table6":  Table6Checks(mx),
	}
	for group, checks := range groups {
		for _, c := range checks {
			if !c.OK {
				t.Errorf("%s: %s (%s)", group, c.Name, c.Note)
			}
		}
	}
	// Scaling values must be sane.
	for _, p := range ScalingPairs {
		for _, uc := range workload.AllUseCases {
			s := mx.Scaling(p, uc)
			if s < 0.5 || s > 2.3 {
				t.Errorf("scaling %s %v = %.2f out of range", p.Name, uc, s)
			}
		}
	}
}

func TestPaperDataComplete(t *testing.T) {
	for _, id := range machine.AllConfigs {
		if paperNetperfLoopback.ThroughputMbps[id] == 0 {
			t.Errorf("missing loopback throughput for %s", id)
		}
		if paperNetperfEndToEnd.CPI[id] == 0 {
			t.Errorf("missing end-to-end CPI for %s", id)
		}
		for _, uc := range workload.AllUseCases {
			if PaperCPI[uc][id] == 0 {
				t.Errorf("missing Table 4 CPI for %v/%s", uc, id)
			}
			if PaperBranchFreq[uc][id] == 0 || PaperBrMPR[uc][id] == 0 {
				t.Errorf("missing Table 5/6 data for %v/%s", uc, id)
			}
		}
	}
	for _, p := range ScalingPairs {
		for _, uc := range workload.AllUseCases {
			if paperScaling[p.Name][uc] == 0 {
				t.Errorf("missing Figure 3 value for %s/%v", p.Name, uc)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title: "test",
		Rows: []TableRow{{
			Label:  "row",
			Values: map[machine.ConfigID]float64{machine.OneCPm: 1.5},
		}},
	}
	out := tb.Render()
	if !strings.Contains(out, "1.50") || !strings.Contains(out, "-") {
		t.Fatalf("render = %q", out)
	}
}

func TestFormatChecksAndFilter(t *testing.T) {
	checks := []ShapeCheck{
		{Name: "a", OK: true, Note: "x"},
		{Name: "b", OK: false, Note: "y"},
	}
	out := FormatChecks(checks)
	if !strings.Contains(out, "ok") || !strings.Contains(out, "FAIL") {
		t.Fatalf("format = %q", out)
	}
	failed := FailedChecks(checks)
	if len(failed) != 1 || failed[0].Name != "b" {
		t.Fatalf("failed = %+v", failed)
	}
}
