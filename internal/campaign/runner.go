package campaign

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/session"
	"repro/internal/workload"
)

// Options parameterizes one campaign run.
type Options struct {
	// Addr overrides Spec.Addr (aonfleet injects the launched gateway).
	Addr string
	// Recorder records the run's nodes and writes the session artifacts;
	// its node at Addr is the campaign's gateway. Nil records the gateway
	// alone, with no artifacts. Run starts an unstarted recorder at the
	// spec's sample_interval_ms and stops it at the end; one already
	// ticking (aonfleet's) keeps its own interval and keeps running.
	Recorder *Recorder
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// scrapeTimeout bounds one GET /stats of a recorded node.
const scrapeTimeout = 2 * time.Second

// runner carries one campaign's live state.
type runner struct {
	spec    *Spec
	addr    string
	timeout time.Duration
	logf    func(string, ...any)
	rec     *Recorder

	// origProcs is GOMAXPROCS when Run began: the width of a phase that
	// sets none, and the width Run restores.
	origProcs int

	mu       sync.Mutex
	faultLog []FaultEvent
}

// Run executes the spec against a live gateway and returns the result.
// The spec must already be validated (parseSpec/LoadSpec do this).
func Run(spec *Spec, opts Options) (*Result, error) {
	addr := opts.Addr
	if addr == "" {
		addr = spec.Addr
	}
	if addr == "" {
		return nil, fmt.Errorf("campaign: no gateway address (spec addr or Options.Addr)")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rec := opts.Recorder
	if rec == nil {
		rec, _ = NewRecorder("", []RecordNode{{Key: RoleGateway + "/gw0", Role: RoleGateway, Addr: addr}}, nil)
	}
	r := &runner{
		spec:      spec,
		addr:      addr,
		timeout:   time.Duration(spec.TimeoutMS) * time.Millisecond,
		logf:      logf,
		rec:       rec,
		origProcs: runtime.GOMAXPROCS(0),
	}

	// Pre-flight: the gateway must answer /stats before the first phase.
	if _, err := gateway.FetchStats(addr, scrapeTimeout); err != nil {
		return nil, fmt.Errorf("campaign: gateway %s not answering /stats: %w", addr, err)
	}

	res := &Result{
		Name:      spec.Name,
		Addr:      addr,
		Seed:      spec.Seed,
		Artifacts: rec.artifacts,
	}

	// The recorder's ticks span the campaign, so the timeline is
	// continuous across phase boundaries. Leaving, the width is restored
	// and later rows carry no phase.
	rows := rec.rowCount()
	defer rec.switchPhase("", r.origProcs)
	if rec.stopTicks == nil {
		rec.Start(time.Duration(spec.SampleIntervalMS) * time.Millisecond)
		defer rec.stopTicks()
	}

	start := time.Now()
	for i := range spec.Phases {
		p := &spec.Phases[i]
		rep, spans, err := r.runPhase(p)
		if err != nil {
			return nil, err
		}
		res.Phases = append(res.Phases, *rep)
		res.ClientSpans = append(res.ClientSpans, spans...)
	}

	res.DurationSec = time.Since(start).Seconds()
	res.Samples = rec.rowCount() - rows
	res.Faults = r.faultLog // its writers are joined
	return res, nil
}

// gatewayRead returns a boundary read of the campaign's gateway for
// Recorder.boundary: one GET /stats, kept in *snap for the report row.
func (r *runner) gatewayRead(snap **gateway.Snapshot) func() (session.Sample, error) {
	return func() (session.Sample, error) {
		s, err := gateway.FetchStats(r.addr, scrapeTimeout)
		if err != nil {
			return session.Sample{}, err
		}
		*snap = s
		return s.Sample(), nil
	}
}

// runPhase drives one phase: envelope-controlled senders (plus trickling
// holds for slowloris), the fault script, and the boundary reads of
// every recorded node at its start and end, which become the report row
// and its per-node windows. It also returns the senders' client spans.
func (r *runner) runPhase(p *Phase) (*PhaseReport, []dtrace.Span, error) {
	procs := p.GOMAXPROCS
	if procs == 0 {
		procs = r.origProcs
	}
	r.rec.switchPhase(p.Name, procs)
	r.rec.event(map[string]any{
		"type": "phase-start", "phase": p.Name, "shape": string(p.Shape),
		"usecase": p.UseCase, "duration_ms": p.DurationMS,
	})
	r.logf("campaign: phase %s: %s %s for %v at GOMAXPROCS %d", p.Name, p.Shape, p.UseCase, p.Duration(), procs)

	// The gateway's start read also settles an in-process gateway's
	// default admission bound at the new width (gateway.Config.MaxInflight).
	var snapStart, snapEnd *gateway.Snapshot
	starts, err := r.rec.boundary(r.addr, r.gatewayRead(&snapStart))
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: phase %s: %w", p.Name, err)
	}
	if p.GOMAXPROCS > 0 && snapStart.Workers != p.GOMAXPROCS {
		return nil, nil, fmt.Errorf("campaign: phase %s: gomaxprocs %d, but the gateway at %s reports %d workers "+
			"(gomaxprocs sets this process's width, so it needs an in-process gateway: aoncamp -selfgate)",
			p.Name, p.GOMAXPROCS, r.addr, snapStart.Workers)
	}
	uc, err := workload.ParseUseCase(p.UseCase)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: phase %s: %v", p.Name, err)
	}
	// The one load driver: the envelope below sets its width tick by tick.
	sp := gateway.NewSenders(gateway.LoadConfig{
		Addr:         r.addr,
		UseCase:      uc,
		Size:         r.spec.SizeBytes,
		InvalidEvery: p.InvalidEvery,
		Timeout:      r.timeout,
		Seed:         r.spec.Seed,
		TraceEvery:   r.spec.TraceEvery,
	})

	var lp *lorisPool
	if p.Shape == ShapeSlowloris {
		lp = newLorisPool(r.addr, workload.HTTPRequestSeeded(0, uc, r.spec.SizeBytes, r.spec.Seed),
			time.Duration(p.TrickleIntervalMS)*time.Millisecond)
	}

	faultStop := make(chan struct{})
	var faultWG sync.WaitGroup
	if len(p.Faults) > 0 {
		faultWG.Add(1)
		go func() {
			defer faultWG.Done()
			r.faultScript(p, faultStop)
		}()
	}

	// The envelope controller: every tick, resize the pools to the
	// shape's width at this offset.
	start := time.Now()
	tick := time.NewTicker(50 * time.Millisecond)
	for {
		elapsed := time.Since(start)
		if elapsed >= p.Duration() {
			break
		}
		if p.Shape == ShapeSlowloris {
			lp.Resize(p.WidthAt(elapsed))
			sp.Resize(p.BackgroundConns)
		} else {
			sp.Resize(p.WidthAt(elapsed))
		}
		<-tick.C
	}
	tick.Stop()

	close(faultStop)
	client := sp.Stop()
	if lp != nil {
		lp.Stop()
	}
	faultWG.Wait()
	activeDur := time.Since(start)

	ends, err := r.rec.boundary(r.addr, r.gatewayRead(&snapEnd))
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: phase %s: %w", p.Name, err)
	}

	rep := buildPhaseReport(p, activeDur, client, lp, snapStart, snapEnd)
	rep.Nodes = r.rec.windows(r.addr, starts, ends)
	r.rec.event(map[string]any{"type": "phase-end", "phase": p.Name, "report": rep})
	r.logf("campaign: phase %s done: offered %.0f/s ok %.0f/s p99 %dus shed %d",
		p.Name, rep.OfferedPerSec, rep.OKPerSec, rep.LatencyP99US, rep.Shed)
	return rep, client.ClientSpans, nil
}

// sleepOrStop sleeps d unless stop closes first; reports whether the
// caller should keep running.
func sleepOrStop(stop <-chan struct{}, d time.Duration) bool {
	select {
	case <-stop:
		return false
	case <-time.After(d):
		return true
	}
}

// lorisPool holds slow-loris connections: each trickles one valid
// request in small chunks paced slower than the gateway's idle timeout,
// so the gateway's read deadline reaps the connection mid-request. A
// write or read error is counted as a reap and the loris redials. The
// envelope controller resizes and stops it like the senders.
type lorisPool struct {
	*gateway.LoopSet
	addr     string
	req      []byte
	interval time.Duration

	held, reaped, completed atomic.Uint64
}

// lorisChunk is the per-drip byte count — small enough that a 5 KB
// request takes minutes at the default pace.
const lorisChunk = 64

func newLorisPool(addr string, req []byte, interval time.Duration) *lorisPool {
	lp := &lorisPool{addr: addr, req: req, interval: interval}
	lp.LoopSet = gateway.NewLoopSet(lp.run)
	return lp
}

func (lp *lorisPool) run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", lp.addr, 2*time.Second)
		if err != nil {
			if !sleepOrStop(stop, 100*time.Millisecond) {
				return
			}
			continue
		}
		lp.held.Add(1)
		reaped := false
		for off := 0; off < len(lp.req); off += lorisChunk {
			end := off + lorisChunk
			if end > len(lp.req) {
				end = len(lp.req)
			}
			if _, err := conn.Write(lp.req[off:end]); err != nil {
				reaped = true
				break
			}
			if end < len(lp.req) {
				if !sleepOrStop(stop, lp.interval) {
					conn.Close()
					return
				}
			}
		}
		if !reaped {
			// The whole request escaped the trickle (idle timeout longer
			// than the drip): read the answer so the hold was still real.
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err != nil {
				reaped = true
			} else {
				lp.completed.Add(1)
			}
		}
		if reaped {
			lp.reaped.Add(1)
		}
		conn.Close()
	}
}
