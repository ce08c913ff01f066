package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	aon "repro/internal/core"
	"repro/internal/netperf"
	"repro/internal/netsim"
	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/sim/sched"
	"repro/internal/workload"
)

// gigabitBps is the testbed link speed.
const gigabitBps = 1e9

// Cell is one simulated run: Config running the XML server on UseCase,
// or netperf in Mode when Netperf is set, on a machine built with
// Machine (the zero Options are the faithful machine).
type Cell struct {
	Config  machine.ConfigID
	Netperf bool
	UseCase workload.UseCase
	Mode    netperf.Mode
	Machine machine.Options
}

// NetperfOpts sizes a netperf run.
type NetperfOpts struct {
	WarmupMs  float64 // simulated warmup before the counter window opens
	MeasureMs float64 // simulated measurement window
}

// NetperfResult is one netperf measurement.
type NetperfResult struct {
	Config  machine.ConfigID
	Mode    netperf.Mode
	Mbps    float64
	Metrics counters.Metrics
	Raw     counters.Set
}

// runNetperf measures netperf cell c.
func runNetperf(c Cell, o NetperfOpts) NetperfResult {
	m := machine.New(c.Config, c.Machine)
	e := sched.NewEngine(m)
	var tx *netsim.Link
	if c.Mode == netperf.EndToEnd {
		tx = netsim.NewLink(m, gigabitBps)
	}
	b := netperf.New(e, c.Mode, tx)
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
		Config:  c.Config,
		Mode:    c.Mode,
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
}

// The one sizing of the paper's evaluation: long enough for caches and
// predictors to reach steady state while keeping host runtime modest.
// aonsim's flag defaults read it, and EXPERIMENTS.md's tables are
// printed at it.
var (
	DefaultNetperfOpts = NetperfOpts{WarmupMs: 2, MeasureMs: 8}
	DefaultAONOpts     = AONOpts{WarmupMsgs: 120, MeasureMsgs: 600, Window: 32}
)

// AONResult is one XML-server measurement.
type AONResult struct {
	Config    machine.ConfigID
	UseCase   workload.UseCase
	Mbps      float64 // application payload throughput
	MsgPerSec float64
	Metrics   counters.Metrics
	Raw       counters.Set
	Stats     aon.Stats
	// CPUs is each logical CPU's counters over the measurement window;
	// they merge to Raw.
	CPUs []counters.Set
}

// RunAON measures XML-server cell c.
func RunAON(c Cell, o AONOpts) (AONResult, error) {
	m := machine.New(c.Config, c.Machine)
	e := sched.NewEngine(m)
	rx := netsim.NewLink(m, gigabitBps)
	tx := netsim.NewLink(m, gigabitBps)
	kern := e.Space.NewProcess()
	nic := netsim.NewNIC(e, kern, rx, tx)
	s, err := aon.New(e, nic, aon.Config{UseCase: c.UseCase})
	if err != nil {
		return AONResult{}, err
	}
	s.SpawnThreads()
	client := aon.NewClient(s, c.UseCase, o.Window)
	client.Start()

	warmTarget := uint64(o.WarmupMsgs)
	e.Run(func(*sched.Engine) bool { return s.Stats.Messages >= warmTarget })

	m.ResetWindow()
	t0 := m.MaxNow()
	msgs0, bytes0 := s.Stats.Messages, s.Stats.BytesIn
	target := msgs0 + uint64(o.MeasureMsgs)
	e.Run(func(*sched.Engine) bool { return s.Stats.Messages >= target })
	t1 := m.MaxNow()
	m.CloseWindow(t1)

	seconds := m.Seconds(t1 - t0)
	if seconds <= 0 {
		return AONResult{}, fmt.Errorf("harness: empty measurement window")
	}
	msgs := float64(s.Stats.Messages - msgs0)
	bytes := float64(s.Stats.BytesIn - bytes0)
	raw := m.SystemCounters()
	cpus := make([]counters.Set, len(m.LCPUs))
	for i, lc := range m.LCPUs {
		cpus[i] = lc.Counters
	}
	return AONResult{
		Config:    c.Config,
		UseCase:   c.UseCase,
		Mbps:      bytes * 8 / seconds / 1e6,
		MsgPerSec: msgs / seconds,
		Metrics:   counters.Derive(raw),
		Raw:       raw,
		Stats:     s.Stats,
		CPUs:      cpus,
	}, nil
}

// AONMatrix holds AON results indexed [useCase][config]: the view of a
// grid the table and figure renderers read.
type AONMatrix map[workload.UseCase]map[machine.ConfigID]AONResult

// Scaling computes Figure 3's ratio for one transition and use case.
func (mx AONMatrix) Scaling(p ScalingPair, uc workload.UseCase) float64 {
	from := mx[uc][p.From].Mbps
	to := mx[uc][p.To].Mbps
	if from == 0 {
		return 0
	}
	return to / from
}

// NetperfMatrix holds netperf results indexed [mode][config].
type NetperfMatrix map[netperf.Mode]map[machine.ConfigID]NetperfResult

// AONCells lists every use case on every configuration, faithfully.
func AONCells(useCases []workload.UseCase, configs []machine.ConfigID) []Cell {
	var out []Cell
	for _, uc := range useCases {
		for _, id := range configs {
			out = append(out, Cell{Config: id, UseCase: uc})
		}
	}
	return out
}

// NetperfCells lists both netperf modes on every configuration, faithfully.
func NetperfCells(configs []machine.ConfigID) []Cell {
	var out []Cell
	for _, mode := range []netperf.Mode{netperf.Loopback, netperf.EndToEnd} {
		for _, id := range configs {
			out = append(out, Cell{Config: id, Netperf: true, Mode: mode})
		}
	}
	return out
}

// Result is one cell's measurement: Netperf for a netperf cell, AON for
// the others.
type Result struct {
	AON     AONResult
	Netperf NetperfResult
}

// Grid holds a set of runs' results keyed by cell.
type Grid map[Cell]Result

// RunGrid runs every distinct cell of cells once, an XML-server cell
// sized by aon and a netperf cell by np. Each run is a pure function of
// its cell and sizing, so the cells run in one pool, at most GOMAXPROCS
// at a time, and a cell reads the same in any grid and at any GOMAXPROCS.
func RunGrid(cells []Cell, aon AONOpts, np NetperfOpts) (Grid, error) {
	var distinct []Cell
	for _, c := range cells {
		if !slices.Contains(distinct, c) {
			distinct = append(distinct, c)
		}
	}
	res := make([]Result, len(distinct))
	errs := make([]error, len(distinct))
	runCells(len(distinct), func(i int) {
		if c := distinct[i]; c.Netperf {
			res[i].Netperf = runNetperf(c, np)
		} else {
			res[i].AON, errs[i] = RunAON(c, aon)
		}
	})
	g := Grid{}
	for i, c := range distinct {
		if errs[i] != nil {
			return nil, fmt.Errorf("%v on %v: %w", c.UseCase, c.Config, errs[i])
		}
		g[c] = res[i]
	}
	return g, nil
}

// AONMatrix is the view of g's XML-server cells on the faithful machine.
func (g Grid) AONMatrix() AONMatrix {
	mx := AONMatrix{}
	for c, r := range g {
		if !c.Netperf && c.Machine == (machine.Options{}) {
			if mx[c.UseCase] == nil {
				mx[c.UseCase] = map[machine.ConfigID]AONResult{}
			}
			mx[c.UseCase][c.Config] = r.AON
		}
	}
	return mx
}

// NetperfMatrix is the view of g's netperf cells on the faithful machine.
func (g Grid) NetperfMatrix() NetperfMatrix {
	mx := NetperfMatrix{}
	for c, r := range g {
		if c.Netperf && c.Machine == (machine.Options{}) {
			if mx[c.Mode] == nil {
				mx[c.Mode] = map[machine.ConfigID]NetperfResult{}
			}
			mx[c.Mode][c.Config] = r.Netperf
		}
	}
	return mx
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
