package aon

import (
	"testing"

	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// The extension use cases (the paper's future work: DPI and crypto).

func TestServerEndToEndDPI(t *testing.T) {
	s, _ := runServer(t, machine.TwoCPm, workload.DPI, 30)
	if s.Stats.CleanDPI == 0 {
		t.Fatal("no clean messages")
	}
	if s.Stats.ParseErrors != 0 {
		t.Fatalf("parse errors: %d", s.Stats.ParseErrors)
	}
}

func TestServerEndToEndAUTH(t *testing.T) {
	s, _ := runServer(t, machine.OneCPm, workload.AUTH, 30)
	if s.Stats.AuthOK == 0 {
		t.Fatal("no authenticated messages")
	}
	if s.Stats.RoutedError == 0 {
		t.Fatal("no tampered message rejected (TamperEvery should fire)")
	}
}

func TestExtensionCostSpectrum(t *testing.T) {
	// AUTH (crypto) must be the most instruction-heavy use case; DPI sits
	// between FR and the XML-processing cases.
	cost := map[workload.UseCase]float64{}
	for _, uc := range []workload.UseCase{workload.FR, workload.CBR, workload.DPI, workload.AUTH} {
		s, m := runServer(t, machine.OneCPm, uc, 25)
		sys := m.SystemCounters()
		cost[uc] = float64(sys.Get(counters.InstrRetired)) / float64(s.Stats.Messages)
	}
	if !(cost[workload.DPI] > cost[workload.FR]) {
		t.Fatalf("DPI (%.0f) not above FR (%.0f)", cost[workload.DPI], cost[workload.FR])
	}
	if !(cost[workload.AUTH] > cost[workload.CBR]) {
		t.Fatalf("AUTH (%.0f) not above CBR (%.0f)", cost[workload.AUTH], cost[workload.CBR])
	}
}

func TestFourCoreExtensionRuns(t *testing.T) {
	s, m := runServer(t, machine.FourCPm, workload.SV, 60)
	if s.Stats.Messages < 60 {
		t.Fatal("four-core machine did not process the load")
	}
	busy := 0
	for _, lc := range m.LCPUs {
		if lc.Busy() > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("only %d of 4 cores did work", busy)
	}
}
