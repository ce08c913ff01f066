package vtune

import (
	"testing"

	"repro/internal/perf/machine"
	"repro/internal/perf/trace"
	"repro/internal/sim/sched"
)

func TestSamplingCollectsDeltas(t *testing.T) {
	m := machine.New(machine.TwoCPm, machine.Options{})
	e := sched.NewEngine(m)
	steps := 0
	e.Spawn("busy", 0, 1, 0, sched.ProcFunc(func(ctx *sched.Ctx) sched.Status {
		steps++
		ctx.Exec([]trace.Op{{Kind: trace.ALU, N: 5000}})
		if steps >= 40 {
			return sched.StatusDone()
		}
		return sched.StatusYield()
	}))
	p := New(e, 20_000)
	p.Start(0)
	e.Run(func(*sched.Engine) bool { return steps >= 40 })
	p.Stop()

	samples := p.Samples()
	if len(samples) < 4 {
		t.Fatalf("only %d samples", len(samples))
	}
	var instr uint64
	for _, s := range samples {
		instr += s.Delta.Get(1) // InstrRetired
	}
	if instr == 0 {
		t.Fatal("samples carry no instruction deltas")
	}

	util := p.Utilization()
	if util[0] <= 0.5 {
		t.Fatalf("busy CPU utilization %.2f", util[0])
	}
	if len(util) != len(m.LCPUs) {
		t.Fatalf("%d utilization entries for %d logical CPUs", len(util), len(m.LCPUs))
	}
	if util[1] > 0.1 {
		t.Fatalf("idle CPU utilization %.2f", util[1])
	}
}

func TestStopEndsSampling(t *testing.T) {
	m := machine.New(machine.OneCPm, machine.Options{})
	e := sched.NewEngine(m)
	p := New(e, 1000)
	p.Start(0)
	p.Stop()
	e.Spawn("t", 0, 1, 0, sched.ProcFunc(func(ctx *sched.Ctx) sched.Status {
		ctx.Exec([]trace.Op{{Kind: trace.ALU, N: 100000}})
		return sched.StatusDone()
	}))
	e.Run(nil)
	if len(p.Samples()) > 1 {
		t.Fatalf("sampling continued after Stop: %d samples", len(p.Samples()))
	}
}
