package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/session"
)

// startGateway brings up an in-process gateway on loopback.
func startGateway(t *testing.T, cfg gateway.Config) string {
	t.Helper()
	srv, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv.Addr().String()
}

// TestPhaseGOMAXPROCS: a gomaxprocs phase runs at that width against an
// in-process gateway, its report row and every row the recorder tagged
// with it carry the width, a phase without one runs at the width Run
// began with, and Run restores that width.
func TestPhaseGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	addr := startGateway(t, gateway.Config{})

	dir := t.TempDir()
	spec := &Spec{
		SampleIntervalMS: 40,
		Phases: []Phase{
			{Name: "one", UseCase: "CBR", DurationMS: 150, Conns: 1, GOMAXPROCS: 1},
			{Name: "default", UseCase: "CBR", DurationMS: 150, Conns: 1},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, Options{Addr: addr, Out: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != 2 {
		t.Fatalf("GOMAXPROCS %d after Run, want 2 restored", got)
	}
	// Each phase's first row is its start read: the width it began at.
	var seen []int
	widths := map[string]int{"one": 1, "default": 2}
	for _, row := range readRows(t, filepath.Join(dir, "session.jsonl")) {
		if row.Sample.GOMAXPROCS != widths[row.Phase] {
			t.Errorf("row in phase %q at width %d, want %d", row.Phase, row.Sample.GOMAXPROCS, widths[row.Phase])
		}
		if n := len(seen); n == 0 || seen[n-1] != row.Sample.GOMAXPROCS {
			seen = append(seen, row.Sample.GOMAXPROCS)
		}
	}
	if fmt.Sprint(seen) != "[1 2]" {
		t.Fatalf("phase widths %v, want [1 2]", seen)
	}
	if p0, p1 := res.Phases[0].gateway(), res.Phases[1].gateway(); p0.GOMAXPROCS != 1 || p1.GOMAXPROCS != 2 {
		t.Fatalf("report procs %d, %d, want 1, 2", p0.GOMAXPROCS, p1.GOMAXPROCS)
	}
	for _, p := range res.Phases {
		if p.OK == 0 {
			t.Fatalf("phase %s did no work: %+v", p.Name, p)
		}
	}
	if text := formatReport(res); !strings.Contains(text, "procs") || !strings.Contains(text, "scale") {
		t.Fatalf("report missing procs/scale columns:\n%s", text)
	}
}

// TestPhaseGOMAXPROCSAdmissionBound: an in-process gateway built at
// width 2 with the default admission bound (5x GOMAXPROCS = 10) sheds at
// the bound of the phase's width, not the width it was built at — a
// width-4 phase of 16 closed-loop connections (at most 16 in flight,
// under the bound of 20) sheds nothing.
func TestPhaseGOMAXPROCSAdmissionBound(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	addr := startGateway(t, gateway.Config{})

	spec := &Spec{Phases: []Phase{{Name: "four", UseCase: "CBR", DurationMS: 300, Conns: 16, GOMAXPROCS: 4}}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases[0]
	if p.OK == 0 || p.Shed != 0 || p.GwShed != 0 {
		t.Fatalf("width-4 phase with 16 conns: ok %d, shed %d (gateway %d), want work and no sheds", p.OK, p.Shed, p.GwShed)
	}
}

// fakeStats serves a /stats body reporting the given width to every
// request: a gateway running in another process.
func fakeStats(t *testing.T, workers int) string {
	return startFakePlane(t, func() any { return map[string]int{"workers": workers} }).addr
}

// TestPhaseGOMAXPROCSRefusedElsewhere: against a gateway whose /stats
// workers is not the phase's width, the phase fails loudly instead of
// reporting a width it did not run at, and Run still restores the
// process's width.
func TestPhaseGOMAXPROCSRefusedElsewhere(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	addr := fakeStats(t, before+1)
	spec := &Spec{Phases: []Phase{{Name: "one", DurationMS: 100, Conns: 1, GOMAXPROCS: 1}}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), spec, Options{Addr: addr})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("reports %d workers", before+1)) {
		t.Fatalf("err = %v, want a workers mismatch", err)
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("GOMAXPROCS %d after a failed Run, want %d restored", got, before)
	}
}

// TestFormatReportGatewayColumns: the report's procs, cpi, brmpr% and
// gc% cells are the gateway's phase window, the campaign's gateway being
// the first of Nodes; a model-sourced window marks its cells * and adds
// the notice line, a window without counters drops the columns, and a
// phase without a counter view beside one with it reads "-".
func TestFormatReportGatewayColumns(t *testing.T) {
	gw := func(src string) []NodeWindow {
		return []NodeWindow{
			{Node: "gateway/gw0", Role: RoleGateway, Sample: session.Sample{GOMAXPROCS: 3, CPI: 1.5, BrMPR: 3.25, GCCPUPct: 4.5, DerivedSource: src}},
			{Node: "backend/b0", Role: roleBackend, Sample: session.Sample{CPI: 9, BrMPR: 9}},
		}
	}
	const notice = "* model prediction"
	for _, tc := range []struct {
		name   string
		phases []PhaseReport
		want   []string
		absent []string
	}{
		{"hw", []PhaseReport{{Name: "p", Nodes: gw("hw")}},
			[]string{"cpi", "brmpr%", "gc%", "    3 ", "    1.50     3.25    4.5\n"}, []string{"*", notice}},
		{"model", []PhaseReport{{Name: "p", Nodes: gw("model")}},
			[]string{"    3 ", "   1.50*    3.25*    4.5\n", notice}, nil},
		{"no-counters", []PhaseReport{{Name: "p", Nodes: gw("")}},
			[]string{"    3 "}, []string{"cpi", "brmpr%", notice}},
		{"mixed", []PhaseReport{{Name: "p", Nodes: gw("hw")}, {Name: "q"}},
			[]string{"cpi", "        -        -      -\n"}, []string{notice}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			text := formatReport(&Result{Name: "r", Phases: tc.phases})
			for _, w := range tc.want {
				if !strings.Contains(text, w) {
					t.Errorf("report lacks %q:\n%s", w, text)
				}
			}
			table, _, _ := strings.Cut(text, "per-node phase windows")
			for _, a := range tc.absent {
				if strings.Contains(table, a) {
					t.Errorf("report table has %q:\n%s", a, text)
				}
			}
		})
	}
}

// TestWriteArtifacts: the one artifact writer puts the formatted report
// and the result JSON beside each other, returns what it wrote, writes
// nothing for an empty directory, and fails on an unmarshalable result
// and on an unwritable directory instead of dropping either error.
func TestWriteArtifacts(t *testing.T) {
	res := &Result{Name: "art", Phases: []PhaseReport{{Name: "p0", UseCase: "CBR", OKPerSec: 480}}}
	dir := t.TempDir()
	report, resultJSON, err := WriteArtifacts(dir, res)
	if err != nil {
		t.Fatal(err)
	}
	if report != formatReport(res) {
		t.Fatalf("returned report differs from formatReport:\n%s", report)
	}
	for name, want := range map[string]string{reportFile: report, resultFile: string(resultJSON) + "\n"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != want {
			t.Fatalf("%s: err %v, content differs from the returned one:\n%s", name, err, got)
		}
	}
	var back Result
	if err := json.Unmarshal(resultJSON, &back); err != nil || back.Phases[0].OKPerSec != 480 {
		t.Fatalf("result JSON does not round-trip: %v %+v", err, back)
	}

	if _, _, err := WriteArtifacts("", res); err != nil {
		t.Fatalf("empty dir: %v", err)
	}
	bad := &Result{Phases: []PhaseReport{{OKPerSec: math.NaN()}}}
	if _, _, err := WriteArtifacts(t.TempDir(), bad); err == nil {
		t.Fatal("a NaN in the result was written without an error")
	}
	if _, _, err := WriteArtifacts(filepath.Join(dir, reportFile), res); err == nil {
		t.Fatal("writing under a file instead of a directory succeeded")
	}
}
