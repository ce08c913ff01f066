package campaign

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
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
	// OutDir receives the session artifacts (JSONL + CSV); empty means
	// no artifacts, report only.
	OutDir string
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// OnPhase, when set, is called on the campaign's goroutine at every
	// phase boundary: at the start of p with rep nil (width and label
	// already switched), and at its end with the phase's report row.
	// aonfleet cuts its per-node windows here.
	OnPhase func(p *Phase, rep *PhaseReport)
}

// scrapeTimeout bounds one GET /stats of the gateway under test.
const scrapeTimeout = 2 * time.Second

// runner carries one campaign's live state.
type runner struct {
	spec    *Spec
	addr    string
	timeout time.Duration
	logf    func(string, ...any)

	// Session artifacts (nil without Options.OutDir): the event log and
	// the phase-tagged timeline.
	jsonl *session.JSONL
	csv   *session.Appender

	window session.Windower // the gateway's previous cumulative /stats view

	samples int // sampler goroutine only, until it is joined

	// origProcs is GOMAXPROCS when Run began: the width of a phase that
	// sets none, and the width Run restores.
	origProcs int

	// phaseMu is held across a whole sample — scrape and tag — and across
	// a phase switch, so a sample's phase tag and gomaxprocs agree.
	phaseMu  sync.Mutex
	curPhase string
	counters *counterSum // the current phase's samples' counter views

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
	r := &runner{
		spec:      spec,
		addr:      addr,
		timeout:   time.Duration(spec.TimeoutMS) * time.Millisecond,
		logf:      logf,
		origProcs: runtime.GOMAXPROCS(0),
	}
	defer runtime.GOMAXPROCS(r.origProcs)

	var artifacts []string
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		artifacts = []string{filepath.Join(opts.OutDir, "session.jsonl"), filepath.Join(opts.OutDir, "session.csv")}
		jf, err := session.CreateJSONL(artifacts[0])
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		defer jf.Close()
		cf, err := os.Create(artifacts[1])
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		defer cf.Close()
		r.jsonl = jf
		// The campaign CSV is the stock session schema with a leading
		// "phase" column — session.ReadCSV locates columns by name, so the
		// stock readers still parse it.
		r.csv = session.NewAppender(cf, true, "phase")
		if err := r.csv.Append(nil); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}

	// Pre-flight: the gateway must answer /stats before the first phase.
	if _, err := gateway.FetchStats(addr, scrapeTimeout); err != nil {
		return nil, fmt.Errorf("campaign: gateway %s not answering /stats: %w", addr, err)
	}

	res := &Result{
		Name:      spec.Name,
		Addr:      addr,
		Seed:      spec.Seed,
		Artifacts: artifacts,
	}

	// One sampler spans the campaign so the timeline is continuous across
	// phase boundaries; each sample is tagged with the phase it landed in.
	stopSample := session.Every(time.Duration(spec.SampleIntervalMS)*time.Millisecond, r.sampleOnce)
	defer stopSample()

	start := time.Now()
	for i := range spec.Phases {
		p := &spec.Phases[i]
		rep, spans, err := r.runPhase(p, opts.OnPhase)
		if err != nil {
			return nil, err
		}
		res.Phases = append(res.Phases, *rep)
		res.ClientSpans = append(res.ClientSpans, spans...)
	}
	stopSample()

	res.DurationSec = time.Since(start).Seconds()
	res.Faults, res.Samples = r.faultLog, r.samples // their writers are joined
	return res, nil
}

// runPhase drives one phase: envelope-controlled senders (plus trickling
// holds for slowloris), the fault script, and start/end gateway
// snapshots that become the report row. It also returns the senders'
// client spans.
func (r *runner) runPhase(p *Phase, onPhase func(*Phase, *PhaseReport)) (*PhaseReport, []dtrace.Span, error) {
	procs := p.GOMAXPROCS
	if procs == 0 {
		procs = r.origProcs
	}
	sums := &counterSum{}
	r.phaseMu.Lock()
	runtime.GOMAXPROCS(procs)
	r.curPhase, r.counters = p.Name, sums
	r.phaseMu.Unlock()
	r.writeEvent(map[string]any{
		"type": "phase-start", "phase": p.Name, "shape": string(p.Shape),
		"usecase": p.UseCase, "duration_ms": p.DurationMS,
	})
	r.logf("campaign: phase %s: %s %s for %v at GOMAXPROCS %d", p.Name, p.Shape, p.UseCase, p.Duration(), procs)
	if onPhase != nil {
		onPhase(p, nil)
	}

	// This scrape also settles an in-process gateway's default admission
	// bound at the new width (gateway.Config.MaxInflight).
	snapStart, err := gateway.FetchStats(r.addr, scrapeTimeout)
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
	// The one load driver, in redial mode: the envelope below sets its
	// width tick by tick.
	sp := gateway.NewSenders(gateway.LoadConfig{
		Addr:         r.addr,
		UseCase:      uc,
		Size:         r.spec.SizeBytes,
		InvalidEvery: p.InvalidEvery,
		Timeout:      r.timeout,
		Seed:         r.spec.Seed,
		TraceEvery:   r.spec.TraceEvery,
	}, true)

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

	snapEnd, err := gateway.FetchStats(r.addr, scrapeTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: phase %s: %w", p.Name, err)
	}

	rep := buildPhaseReport(p, activeDur, client, lp, snapStart, snapEnd, r.spec)
	r.phaseMu.Lock()
	rep.Counters = sums.means(snapEnd)
	r.phaseMu.Unlock()
	r.writeEvent(map[string]any{"type": "phase-end", "phase": p.Name, "report": rep})
	r.logf("campaign: phase %s done: offered %.0f/s ok %.0f/s p99 %dus shed %d",
		p.Name, rep.OfferedPerSec, rep.OKPerSec, rep.LatencyP99US, rep.Shed)
	if onPhase != nil {
		onPhase(p, rep)
	}
	return rep, client.ClientSpans, nil
}

// sampleOnce scrapes /stats and lands one phase-tagged windowed sample
// in the timeline.
func (r *runner) sampleOnce() {
	r.phaseMu.Lock()
	defer r.phaseMu.Unlock()
	snap, err := gateway.FetchStats(r.addr, scrapeTimeout)
	if err != nil {
		return // a missed tick is not fatal; phase snapshots own liveness
	}
	s := r.window.Window(r.addr, snap.Sample())
	phase := r.curPhase
	r.writeEvent(map[string]any{"type": "sample", "phase": phase, "sample": s})
	if r.csv != nil {
		r.csv.AppendRow(s, phase) // best effort, like the event log
	}
	if s.DerivedSource != "" && r.counters != nil {
		r.counters.add(s)
	}
	r.samples++
}

// writeEvent appends one line to the event log; a failed write loses
// that line, not the campaign.
func (r *runner) writeEvent(ev map[string]any) {
	if r.jsonl != nil {
		r.jsonl.Write(ev)
	}
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
