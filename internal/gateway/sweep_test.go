package gateway

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lhist"
)

// TestFormatModelTable feeds the sweep's model renderer synthetic rows
// with known stage demands and checks the predicted columns against the
// closed-form M/M/1 answer.
func TestFormatModelTable(t *testing.T) {
	if got := FormatModelTable(nil, 100*time.Millisecond); got != "" {
		t.Fatalf("empty rows should render nothing, got:\n%s", got)
	}

	// 1000us of process demand per message at width 1: capacity is
	// 1000 msgs/s; offered 500/s is rho=0.5.
	stages := StageSnapshot{
		"CBR": {
			"process": lhist.Snapshot{Count: 100, MeanUS: 1000},
		},
		// The control-plane GET row must not pollute the demand means.
		"GET": {
			"process": lhist.Snapshot{Count: 100, MeanUS: 1e6},
		},
	}
	rows := []SweepResult{{
		Procs: 1,
		Report: Report{
			Counts:      Counts{Sent: 500, OK: 480},
			DurationSec: 1,
			MsgsPerSec:  480,
			Latency:     HistSnapshot{P99US: 5000},
		},
		Server: Snapshot{Stages: stages},
	}}

	table := FormatModelTable(rows, 100*time.Millisecond)
	for _, want := range []string{"GOMAXPROCS", "offered/s", "pred/s", "admissible/s"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	// Offered = Sent/DurationSec = 500; at rho=0.5 the model completes
	// everything offered, so pred/s must print 500.
	if !strings.Contains(table, " 500 ") {
		t.Fatalf("expected predicted throughput 500 in table:\n%s", table)
	}

	d := stages.Demands()
	if d.WorkerDemand() != 1000.0/1e6 {
		t.Fatalf("worker demand = %g, want 0.001 (GET row must be excluded)", d.WorkerDemand())
	}
	// Across use-case rows the means are count-weighted.
	stages["SV"] = map[string]lhist.Snapshot{"process": {Count: 300, MeanUS: 2000}}
	if got := stages.Demands().Process; got != 1750.0/1e6 {
		t.Fatalf("process demand = %g, want 0.00175 (count-weighted over CBR and SV)", got)
	}
	delete(stages, "SV")

	// A row without traces degrades to a marker line, not a bogus model.
	rows = append(rows, SweepResult{Procs: 2, Server: Snapshot{Stages: StageSnapshot{}}})
	table = FormatModelTable(rows, 100*time.Millisecond)
	if !strings.Contains(table, "no stage traces") {
		t.Fatalf("traceless row should be marked:\n%s", table)
	}
}
