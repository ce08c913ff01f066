package harness

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/netperf"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// TestRunsAreHermetic holds a simulated run to a pure function of its
// cell and sizing: the same cell run twice in one process reads the same
// counters, and a mixed grid of XML-server, netperf and ablated-machine
// cells run two at a time equals its cells run one by one in reverse
// order, a cell listed twice running once. A run that leaked state into
// the next one (a process-wide counter, a shared cache) fails the first
// part; one that races with a concurrent run, the second.
func TestRunsAreHermetic(t *testing.T) {
	o := AONOpts{WarmupMsgs: 10, MeasureMsgs: 30, Window: 16}
	first, err := RunAON(Cell{Config: machine.TwoLPx, UseCase: workload.CBR}, o)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunAON(Cell{Config: machine.TwoLPx, UseCase: workload.CBR}, o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Raw != again.Raw || first.Stats != again.Stats {
		t.Errorf("CBR on 2LPx run twice:\n%v %+v\n%v %+v", first.Raw, first.Stats, again.Raw, again.Stats)
	}
	no := NetperfOpts{WarmupMs: 0.5, MeasureMs: 1}
	lb := Cell{Config: machine.TwoLPx, Netperf: true, Mode: netperf.Loopback}
	if a, b := runNetperf(lb, no), runNetperf(lb, no); a.Raw != b.Raw {
		t.Errorf("loopback netperf on 2LPx run twice:\n%v\n%v", a.Raw, b.Raw)
	}

	cells := []Cell{
		{Config: machine.OneCPm, UseCase: workload.FR},
		{Config: machine.TwoLPx, UseCase: workload.SV},
		{Config: machine.TwoLPx, UseCase: workload.SV, Machine: machine.Options{PrivatePredictors: true}},
		lb,
		{Config: machine.OneCPm, UseCase: workload.FR},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, err := RunGrid(cells, o, no)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != len(cells)-1 {
		t.Errorf("grid of %d cells, one listed twice, holds %d results", len(cells), len(g))
	}
	for i := len(cells) - 2; i >= 0; i-- {
		c := cells[i]
		var want Result
		if c.Netperf {
			want.Netperf = runNetperf(c, no)
		} else if want.AON, err = RunAON(c, o); err != nil {
			t.Fatal(err)
		}
		if got := g[c]; !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: grid cell\n%+v\nalone\n%+v", c, got, want)
		}
	}
}
