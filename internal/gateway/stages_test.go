package gateway

import (
	"testing"

	"repro/internal/lhist"
)

// TestStageDemands pins how a stage snapshot seeds the capacity model:
// the control-plane GET row is excluded, and across use-case rows each
// stage's mean is weighted by its trace count.
func TestStageDemands(t *testing.T) {
	stages := StageSnapshot{
		"CBR": {"process": lhist.Snapshot{Count: 100, MeanUS: 1000}},
		// The control-plane GET row must not pollute the demand means.
		"GET": {"process": lhist.Snapshot{Count: 100, MeanUS: 1e6}},
	}
	if got := stages.Demands().WorkerDemand(); got != 1000.0/1e6 {
		t.Fatalf("worker demand = %g, want 0.001 (GET row must be excluded)", got)
	}
	stages["SV"] = map[string]lhist.Snapshot{"process": {Count: 300, MeanUS: 2000}}
	if got := stages.Demands().Process; got != 1750.0/1e6 {
		t.Fatalf("process demand = %g, want 0.00175 (count-weighted over CBR and SV)", got)
	}
}
