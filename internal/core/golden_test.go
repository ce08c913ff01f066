package aon

import (
	"os"
	"os/exec"
	"testing"

	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// TestWorkerCountersGolden pins the simulated machine's system-wide
// counters after a fixed number of messages per use case on 1CPm: every
// event the model counts (cycles, instructions, cache and TLB misses,
// data accesses, bus transactions, branches and mispredictions) and the
// server's outcome counts. Any change to what a worker emits — the order
// of its stages, the address of a buffer, an extra or missing micro-op —
// moves at least one of them, so a refactor of the worker that claims to
// leave the simulator alone must leave this test passing unchanged. XJ is
// not pinned: its simulated stream is not the paper's.
//
// The network stack's periodic branches key off one process-wide segment
// counter (netsim's segSeq), so the counts depend on every simulation the
// process ran before. The check therefore runs in a fresh copy of the
// test binary.
func TestWorkerCountersGolden(t *testing.T) {
	if os.Getenv("AON_GOLDEN_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWorkerCountersGolden$", "-test.count=1")
		cmd.Env = append(os.Environ(), "AON_GOLDEN_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	const msgs = 24
	type golden struct {
		events [counters.NumEvents]uint64
		stats  Stats
	}
	want := map[workload.UseCase]golden{
		workload.FR: {
			[counters.NumEvents]uint64{3916534, 1751842, 161544, 15503, 293515, 20857, 677686, 755, 1370, 3849020},
			Stats{Messages: 24, BytesIn: 0x1efef, BytesOut: 0x1efef},
		},
		workload.CBR: {
			[counters.NumEvents]uint64{5025645, 2670045, 173879, 15846, 434255, 21454, 798666, 4085, 1722, 4958117},
			Stats{Messages: 24, BytesIn: 0x1f007, BytesOut: 0x1f007, RoutedMatch: 12, RoutedError: 12},
		},
		workload.SV: {
			[counters.NumEvents]uint64{5052466, 2715262, 172924, 15846, 398851, 21454, 794938, 5697, 1722, 4984964},
			Stats{Messages: 24, BytesIn: 0x1efef, BytesOut: 0x1efef, ValidationOK: 24},
		},
		workload.DPI: {
			[counters.NumEvents]uint64{4638507, 2378157, 162001, 15544, 431121, 20900, 922290, 763, 1724, 4570978},
			Stats{Messages: 24, BytesIn: 0x1f029, BytesOut: 0x1f029, RoutedError: 4, CleanDPI: 20},
		},
		workload.AUTH: {
			[counters.NumEvents]uint64{6165650, 4096702, 161710, 15559, 311090, 20937, 699142, 750, 1371, 6097331},
			Stats{Messages: 24, BytesIn: 0x1f517, BytesOut: 0x1f517, RoutedError: 3, AuthOK: 21},
		},
	}
	for _, uc := range []workload.UseCase{workload.FR, workload.CBR, workload.SV, workload.DPI, workload.AUTH} {
		s, m := runServer(t, machine.OneCPm, uc, msgs)
		m.CloseWindow(m.MaxNow()) // sets Clockticks and BusyCycles
		sys := m.SystemCounters()
		w := want[uc]
		for e := counters.Event(0); e < counters.NumEvents; e++ {
			if got := sys.Get(e); got != w.events[e] {
				t.Errorf("%v: %s = %d, want %d", uc, e, got, w.events[e])
			}
		}
		if s.Stats != w.stats {
			t.Errorf("%v: stats %+v, want %+v", uc, s.Stats, w.stats)
		}
	}
}
