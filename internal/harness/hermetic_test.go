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
// counters, and a grid run two cells at a time equals its cells run one
// by one in reverse order. A run that leaked state into the next one (a
// process-wide counter, a shared cache) fails the first part; one that
// races with a concurrent run, the second.
func TestRunsAreHermetic(t *testing.T) {
	o := AONOpts{WarmupMsgs: 10, MeasureMsgs: 30, Window: 16}
	first, err := RunAON(machine.TwoLPx, workload.CBR, o)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunAON(machine.TwoLPx, workload.CBR, o)
	if err != nil {
		t.Fatal(err)
	}
	if first.Raw != again.Raw || first.Stats != again.Stats {
		t.Errorf("CBR on 2LPx run twice:\n%v %+v\n%v %+v", first.Raw, first.Stats, again.Raw, again.Stats)
	}
	no := NetperfOpts{WarmupMs: 0.5, MeasureMs: 1}
	if a, b := RunNetperf(machine.TwoLPx, netperf.Loopback, no), RunNetperf(machine.TwoLPx, netperf.Loopback, no); a.Raw != b.Raw {
		t.Errorf("loopback netperf on 2LPx run twice:\n%v\n%v", a.Raw, b.Raw)
	}

	useCases := []workload.UseCase{workload.FR, workload.SV}
	configs := []machine.ConfigID{machine.OneCPm, machine.TwoLPx}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	mx, err := RunAONMatrix(useCases, configs, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(useCases) - 1; i >= 0; i-- {
		for j := len(configs) - 1; j >= 0; j-- {
			uc, id := useCases[i], configs[j]
			want, err := RunAON(id, uc, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := mx[uc][id]; !reflect.DeepEqual(got, want) {
				t.Errorf("%v on %v: grid cell\n%+v\nalone\n%+v", uc, id, got, want)
			}
		}
	}
}
