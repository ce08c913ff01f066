package aon

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/sim/sched"
	"repro/internal/workload"
)

// runServer spins up a full simulated server and processes n messages.
func runServer(t *testing.T, id machine.ConfigID, uc workload.UseCase, n int) (*Server, *machine.Machine) {
	t.Helper()
	m := machine.New(id, machine.Options{})
	e := sched.NewEngine(m)
	rx := netsim.NewLink(m, 1e9)
	tx := netsim.NewLink(m, 1e9)
	nic := netsim.NewNIC(e, e.Space.NewProcess(), rx, tx)
	s, err := New(e, nic, Config{UseCase: uc})
	if err != nil {
		t.Fatal(err)
	}
	s.SpawnThreads()
	NewClient(s, uc, 16).Start()
	target := uint64(n)
	e.Run(func(*sched.Engine) bool { return s.Stats.Messages >= target })
	return s, m
}

func TestServerEndToEndCBR(t *testing.T) {
	s, m := runServer(t, machine.OneCPm, workload.CBR, 40)
	if s.Stats.ParseErrors != 0 {
		t.Fatalf("parse errors: %d", s.Stats.ParseErrors)
	}
	if s.Stats.RoutedMatch == 0 || s.Stats.RoutedError == 0 {
		t.Fatalf("routing degenerate: match=%d error=%d", s.Stats.RoutedMatch, s.Stats.RoutedError)
	}
	// Roughly half the pool matches.
	total := s.Stats.RoutedMatch + s.Stats.RoutedError
	if s.Stats.RoutedMatch < total/4 || s.Stats.RoutedMatch > 3*total/4 {
		t.Fatalf("match fraction off: %d/%d", s.Stats.RoutedMatch, total)
	}
	if s.Stats.BytesOut != s.Stats.BytesIn {
		t.Fatalf("proxy byte accounting: in=%d out=%d", s.Stats.BytesIn, s.Stats.BytesOut)
	}
	sys := m.SystemCounters()
	if sys.Get(counters.InstrRetired) == 0 || sys.Get(counters.BranchRetired) == 0 {
		t.Fatal("no instructions simulated")
	}
}

func TestServerEndToEndSV(t *testing.T) {
	s, _ := runServer(t, machine.TwoCPm, workload.SV, 40)
	if s.Stats.ValidationOK == 0 {
		t.Fatal("no messages validated")
	}
	if s.Stats.ParseErrors != 0 {
		t.Fatalf("parse errors: %d", s.Stats.ParseErrors)
	}
}

func TestServerUsesAllCPUs(t *testing.T) {
	_, m := runServer(t, machine.TwoPPx, workload.SV, 60)
	for i, lc := range m.LCPUs {
		if lc.Busy() == 0 {
			t.Fatalf("logical CPU %d never executed", i)
		}
	}
}

func TestUseCaseCostOrdering(t *testing.T) {
	// Per-message instruction cost must grow FR < CBR <= SV, the premise
	// of the paper's workload spectrum (Figure 1).
	cost := map[workload.UseCase]float64{}
	for _, uc := range workload.AllUseCases {
		s, m := runServer(t, machine.OneCPm, uc, 30)
		sys := m.SystemCounters()
		cost[uc] = float64(sys.Get(counters.InstrRetired)) / float64(s.Stats.Messages)
	}
	if !(cost[workload.FR] < cost[workload.CBR]) {
		t.Fatalf("FR (%.0f) not cheaper than CBR (%.0f)", cost[workload.FR], cost[workload.CBR])
	}
	if !(cost[workload.CBR] <= cost[workload.SV]*1.05) {
		t.Fatalf("CBR (%.0f) above SV (%.0f)", cost[workload.CBR], cost[workload.SV])
	}
}

func TestDualCoreOutperformsSingle(t *testing.T) {
	// The headline claim: two processing units beat one for CPU-bound
	// AON work.
	_, m1 := runServer(t, machine.OneCPm, workload.SV, 60)
	_, m2 := runServer(t, machine.TwoCPm, workload.SV, 60)
	t1 := m1.Seconds(m1.MaxNow())
	t2 := m2.Seconds(m2.MaxNow())
	if t2 >= t1 {
		t.Fatalf("dual core not faster: %.2fms vs %.2fms", t2*1e3, t1*1e3)
	}
}

func TestWorkerCountOverride(t *testing.T) {
	m := machine.New(machine.TwoCPm, machine.Options{})
	e := sched.NewEngine(m)
	nic := netsim.NewNIC(e, e.Space.NewProcess(), netsim.NewLink(m, 1e9), netsim.NewLink(m, 1e9))
	s, err := New(e, nic, Config{UseCase: workload.FR, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Workers != 1 {
		t.Fatal("worker override ignored")
	}
}
