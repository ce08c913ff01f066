package counters

import (
	"strings"
	"testing"
)

func TestAddGetReset(t *testing.T) {
	var s Set
	s.Add(InstrRetired, 100)
	s.Add(InstrRetired, 50)
	s.Add(L2Misses, 7)
	if s.Get(InstrRetired) != 150 || s.Get(L2Misses) != 7 {
		t.Fatalf("get = %d/%d", s.Get(InstrRetired), s.Get(L2Misses))
	}
	s.Reset()
	if s.Get(InstrRetired) != 0 {
		t.Fatal("reset failed")
	}
}

func TestMerge(t *testing.T) {
	var s Set
	s.Add(Clockticks, 1500)
	s.Add(BusyCycles, 700)
	var merged Set
	merged.Merge(s)
	merged.Merge(s)
	if merged.Get(Clockticks) != 3000 || merged.Get(BusyCycles) != 1400 {
		t.Fatalf("merge = %d/%d", merged.Get(Clockticks), merged.Get(BusyCycles))
	}
}

func TestDerive(t *testing.T) {
	var s Set
	s.Add(Clockticks, 2000)
	s.Add(InstrRetired, 1000)
	s.Add(L2Misses, 10)
	s.Add(BusTxns, 20)
	s.Add(BranchRetired, 300)
	s.Add(BranchMispredict, 6)
	m := Derive(s)
	if m.CPI != 2.0 {
		t.Errorf("CPI = %v", m.CPI)
	}
	if m.L2MPI != 1.0 {
		t.Errorf("L2MPI = %v", m.L2MPI)
	}
	if m.BTPI != 2.0 {
		t.Errorf("BTPI = %v", m.BTPI)
	}
	if m.BranchFreq != 30.0 {
		t.Errorf("BranchFreq = %v", m.BranchFreq)
	}
	if m.BrMPR != 2.0 {
		t.Errorf("BrMPR = %v", m.BrMPR)
	}
}

func TestDeriveEmpty(t *testing.T) {
	m := Derive(Set{})
	if m.CPI != 0 || m.BrMPR != 0 {
		t.Fatalf("empty derive = %+v", m)
	}
}

func TestEventNames(t *testing.T) {
	seen := map[string]bool{}
	for e := Event(0); e < NumEvents; e++ {
		name := e.String()
		if name == "" || name == "invalid" {
			t.Fatalf("event %d has no name", e)
		}
		if seen[name] {
			t.Fatalf("duplicate event name %q", name)
		}
		seen[name] = true
	}
	if Event(-1).String() != "invalid" || NumEvents.String() != "invalid" {
		t.Fatal("out-of-range events not flagged")
	}
}

func TestFormatContainsAllEvents(t *testing.T) {
	var s Set
	s.Add(TLBMisses, 42)
	out := s.Format()
	for e := Event(0); e < NumEvents; e++ {
		if !strings.Contains(out, e.String()) {
			t.Fatalf("format missing %s", e)
		}
	}
	if !strings.Contains(out, "42") {
		t.Fatal("format missing value")
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{CPI: 1.5, L2MPI: 0.2, BTPI: 0.3, BranchFreq: 30, BrMPR: 1.1}
	s := m.String()
	for _, want := range []string{"CPI=1.50", "BrFreq=30%", "BrMPR=1.10%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("metrics string %q missing %q", s, want)
		}
	}
}
