package harness

import (
	"testing"

	"repro/internal/netperf"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// Conservation laws from DESIGN.md: these hold for any run on any
// configuration, and catch double-counting bugs in the simulator.

func checkConservation(t *testing.T, raw counters.Set, label string) {
	t.Helper()
	clk := raw.Get(counters.Clockticks)
	busy := raw.Get(counters.BusyCycles)
	if busy > clk {
		t.Errorf("%s: busy cycles (%d) exceed clockticks (%d)", label, busy, clk)
	}
	instr := raw.Get(counters.InstrRetired)
	if instr == 0 {
		t.Errorf("%s: no instructions", label)
	}
	// An instruction cannot retire faster than the fastest issue width
	// allows: instr <= busy * maxIPC (generous bound of 4).
	if instr > busy*4 {
		t.Errorf("%s: %d instructions in %d busy cycles", label, instr, busy)
	}
	br := raw.Get(counters.BranchRetired)
	mp := raw.Get(counters.BranchMispredict)
	if mp > br {
		t.Errorf("%s: mispredicts (%d) exceed branches (%d)", label, mp, br)
	}
	if br > instr {
		t.Errorf("%s: branches (%d) exceed instructions (%d)", label, br, instr)
	}
	mem := raw.Get(counters.DataMemAccesses)
	l1 := raw.Get(counters.L1Misses)
	l2 := raw.Get(counters.L2Misses)
	if l1 > mem {
		t.Errorf("%s: L1 misses (%d) exceed accesses (%d)", label, l1, mem)
	}
	if l2 > l1 {
		t.Errorf("%s: L2 misses (%d) exceed L1 misses (%d)", label, l2, l1)
	}
	if mem > instr {
		t.Errorf("%s: memory accesses (%d) exceed instructions (%d)", label, mem, instr)
	}
}

func TestCounterConservationNetperf(t *testing.T) {
	for _, id := range machine.AllConfigs {
		for _, mode := range []netperf.Mode{netperf.Loopback, netperf.EndToEnd} {
			r := runNetperf(Cell{Config: id, Netperf: true, Mode: mode}, NetperfOpts{WarmupMs: 1, MeasureMs: 2})
			checkConservation(t, r.Raw, string(id)+"/"+mode.String())
		}
	}
}

func TestCounterConservationAON(t *testing.T) {
	configs := append([]machine.ConfigID{}, machine.AllConfigs...)
	configs = append(configs, machine.ExtendedConfigs...)
	g, err := RunGrid(AONCells([]workload.UseCase{workload.FR, workload.SV, workload.AUTH}, configs), AONOpts{WarmupMsgs: 15, MeasureMsgs: 60, Window: 24}, NetperfOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for uc, byConfig := range g.AONMatrix() {
		for id, r := range byConfig {
			checkConservation(t, r.Raw, string(id)+"/"+uc.String())
			// Every measured message was forwarded byte-for-byte.
			if r.Stats.BytesOut != r.Stats.BytesIn {
				t.Errorf("%s/%v: proxy lost bytes: in=%d out=%d", id, uc, r.Stats.BytesIn, r.Stats.BytesOut)
			}
		}
	}
}
