package harness

import (
	"fmt"
	"runtime"
	"sync"

	aon "repro/internal/core"
	"repro/internal/netperf"
	"repro/internal/netsim"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/sim/sched"
	"repro/internal/vtune"
	"repro/internal/workload"
)

// gigabitBps is the testbed link speed.
const gigabitBps = 1e9

// NetperfOpts sizes a netperf run.
type NetperfOpts struct {
	WarmupMs  float64 // simulated warmup before the counter window opens
	MeasureMs float64 // simulated measurement window
	Machine   machine.Options
}

// DefaultNetperfOpts is long enough for caches and predictors to reach
// steady state while keeping host runtime modest.
var DefaultNetperfOpts = NetperfOpts{WarmupMs: 2, MeasureMs: 10}

// NetperfResult is one netperf measurement.
type NetperfResult struct {
	Config  machine.ConfigID
	Mode    netperf.Mode
	Mbps    float64
	Metrics counters.Metrics
	Raw     counters.Set
}

// RunNetperf measures one configuration in one mode.
func RunNetperf(id machine.ConfigID, mode netperf.Mode, o NetperfOpts) NetperfResult {
	m := machine.New(id, o.Machine)
	e := sched.NewEngine(m)
	var tx *netsim.Link
	if mode == netperf.EndToEnd {
		tx = netsim.NewLink(m, gigabitBps)
	}
	b := netperf.New(e, mode, tx)
	b.Spawn()

	warmEnd := m.Cycles(o.WarmupMs * 1e-3)
	e.Run(func(*sched.Engine) bool { return m.MaxNow() >= warmEnd })

	m.ResetWindow()
	start := b.BytesReceived
	measureEnd := m.MaxNow() + m.Cycles(o.MeasureMs*1e-3)
	e.Run(func(*sched.Engine) bool { return m.MaxNow() >= measureEnd })
	end := m.MaxNow()
	m.CloseWindow(end)

	bytes := b.BytesReceived - start
	seconds := m.Seconds(end - warmEnd)
	raw := m.SystemCounters()
	return NetperfResult{
		Config:  id,
		Mode:    mode,
		Mbps:    float64(bytes) * 8 / seconds / 1e6,
		Metrics: counters.Derive(raw),
		Raw:     raw,
	}
}

// AONOpts sizes an XML-server run.
type AONOpts struct {
	WarmupMsgs  int
	MeasureMsgs int
	Window      int // client closed-loop window
	Machine     machine.Options
}

// DefaultAONOpts balances steady state against host runtime.
var DefaultAONOpts = AONOpts{WarmupMsgs: 60, MeasureMsgs: 240, Window: 32}

// AONResult is one XML-server measurement.
type AONResult struct {
	Config    machine.ConfigID
	UseCase   workload.UseCase
	Mbps      float64 // application payload throughput
	MsgPerSec float64
	Metrics   counters.Metrics
	Raw       counters.Set
	Stats     aon.Stats
	// Utilization is each logical CPU's mean busy fraction over the
	// measurement window, from vtune sampling (the paper's Section 3.3).
	Utilization []float64
}

// utilIntervalSec is the simulated sampling period of RunAON's profiler.
const utilIntervalSec = 100e-6

// RunAON measures one use case on one configuration.
func RunAON(id machine.ConfigID, uc workload.UseCase, o AONOpts) (AONResult, error) {
	m := machine.New(id, o.Machine)
	e := sched.NewEngine(m)
	rx := netsim.NewLink(m, gigabitBps)
	tx := netsim.NewLink(m, gigabitBps)
	kern := e.Space.NewProcess()
	nic := netsim.NewNIC(e, kern, rx, tx)
	s, err := aon.New(e, nic, aon.Config{UseCase: uc})
	if err != nil {
		return AONResult{}, err
	}
	s.SpawnThreads()
	client := aon.NewClient(s, uc, o.Window)
	client.Start()

	warmTarget := uint64(o.WarmupMsgs)
	e.Run(func(*sched.Engine) bool { return s.Stats.Messages >= warmTarget })

	m.ResetWindow()
	t0 := m.MaxNow()
	// The profiler only reads counters, so its events leave the run as
	// it would be without them.
	prof := vtune.New(e, m.Cycles(utilIntervalSec))
	prof.Start(t0)
	msgs0, bytes0 := s.Stats.Messages, s.Stats.BytesIn
	target := msgs0 + uint64(o.MeasureMsgs)
	e.Run(func(*sched.Engine) bool { return s.Stats.Messages >= target })
	prof.Stop()
	t1 := m.MaxNow()
	m.CloseWindow(t1)

	seconds := m.Seconds(t1 - t0)
	if seconds <= 0 {
		return AONResult{}, fmt.Errorf("harness: empty measurement window")
	}
	msgs := float64(s.Stats.Messages - msgs0)
	bytes := float64(s.Stats.BytesIn - bytes0)
	raw := m.SystemCounters()
	return AONResult{
		Config:      id,
		UseCase:     uc,
		Mbps:        bytes * 8 / seconds / 1e6,
		MsgPerSec:   msgs / seconds,
		Metrics:     counters.Derive(raw),
		Raw:         raw,
		Stats:       s.Stats,
		Utilization: prof.Utilization(),
	}, nil
}

// AONMatrix holds AON results indexed [useCase][config]. Most table/figure
// experiments consume this matrix; RunAONMatrix lets them share one set of
// simulations.
type AONMatrix map[workload.UseCase]map[machine.ConfigID]AONResult

// RunAONMatrix measures every use case on every configuration. Each run
// is a pure function of its cell and o, so the cells run in parallel and
// the matrix reads the same at any GOMAXPROCS.
func RunAONMatrix(useCases []workload.UseCase, configs []machine.ConfigID, o AONOpts) (AONMatrix, error) {
	n := len(configs)
	res := make([]AONResult, len(useCases)*n)
	errs := make([]error, len(res))
	runCells(len(res), func(i int) { res[i], errs[i] = RunAON(configs[i%n], useCases[i/n], o) })
	out := AONMatrix{}
	for i, r := range res {
		uc, id := useCases[i/n], configs[i%n]
		if errs[i] != nil {
			return nil, fmt.Errorf("%v on %v: %w", uc, id, errs[i])
		}
		if i%n == 0 {
			out[uc] = map[machine.ConfigID]AONResult{}
		}
		out[uc][id] = r
	}
	return out, nil
}

// Scaling computes Figure 3's ratio for one transition and use case.
func (mx AONMatrix) Scaling(p ScalingPair, uc workload.UseCase) float64 {
	from := mx[uc][p.From].Mbps
	to := mx[uc][p.To].Mbps
	if from == 0 {
		return 0
	}
	return to / from
}

// NetperfMatrix holds both modes across all configurations.
type NetperfMatrix map[netperf.Mode]map[machine.ConfigID]NetperfResult

// RunNetperfMatrix measures the full baseline grid, its cells in parallel
// like RunAONMatrix's.
func RunNetperfMatrix(o NetperfOpts) NetperfMatrix {
	modes := []netperf.Mode{netperf.Loopback, netperf.EndToEnd}
	n := len(machine.AllConfigs)
	res := make([]NetperfResult, len(modes)*n)
	runCells(len(res), func(i int) { res[i] = RunNetperf(machine.AllConfigs[i%n], modes[i/n], o) })
	out := NetperfMatrix{}
	for i, r := range res {
		if i%n == 0 {
			out[r.Mode] = map[machine.ConfigID]NetperfResult{}
		}
		out[r.Mode][r.Config] = r
	}
	return out
}

// runCells calls cell(i) for every i in [0, n), on at most GOMAXPROCS
// goroutines at a time, and returns when all have returned. Cells share
// no simulator state: each builds its own machine and engine.
func runCells(n int, cell func(i int)) {
	cells := make(chan int, n) // every cell is queued before any worker starts
	for i := 0; i < n; i++ {
		cells <- i
	}
	close(cells)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				cell(i)
			}
		}()
	}
	wg.Wait()
}
