package campaign

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
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
	// Addr is the gateway of a spec without nodes: the run records it as
	// the one attached node gateway/gw0.
	Addr string
	// Out receives the run's artifacts: session.jsonl, the launched
	// nodes' logs and, with trace_every set, traces.jsonl and
	// trace-report.txt. Empty writes none.
	Out string
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// scrapeTimeout bounds one GET /stats of a recorded node.
const scrapeTimeout = 2 * time.Second

// runner carries one campaign's live state.
type runner struct {
	spec     *Spec
	addr     string   // the campaign's gateway
	backends []string // the backend nodes' addresses, fault step indices
	timeout  time.Duration
	logf     func(string, ...any)
	rec      *recorder

	// origProcs is GOMAXPROCS when Run began: the width of a phase that
	// sets none, and the width Run restores.
	origProcs int

	mu       sync.Mutex
	faultLog []FaultEvent
}

// Run brings up the spec's nodes, records every one of them at
// sample_interval_ms, drives the phases against the first gateway — or,
// with no phases, records until ctx is done — and tears the nodes down
// in reverse start order. The spec must already be validated (LoadSpec
// does this). Cancelling ctx abandons the phases; the started nodes are
// still stopped. When the phases complete the result comes back, with
// an error beside it if a node then stopped uncleanly or an artifact
// failed to write.
func Run(ctx context.Context, spec *Spec, opts Options) (res *Result, err error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	specs := spec.Nodes
	if len(specs) == 0 {
		if opts.Addr == "" {
			return nil, errors.New("campaign: a spec without nodes needs a gateway address")
		}
		specs = []NodeSpec{{Kind: KindAttach, Role: RoleGateway, ID: "gw0", Addr: opts.Addr}}
	}
	if opts.Out != "" {
		if err := os.MkdirAll(opts.Out, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	nodes := expandNodes(specs)
	started, err := startNodes(ctx, nodes, opts.Out, logf)
	defer func() { err = errors.Join(err, stopNodes(started)) }()
	if err != nil {
		return nil, err
	}

	r := &runner{
		spec:      spec,
		timeout:   time.Duration(spec.TimeoutMS) * time.Millisecond,
		logf:      logf,
		origProcs: runtime.GOMAXPROCS(0),
	}
	var recorded []recordNode
	for _, n := range nodes {
		recorded = append(recorded, recordNode{Key: n.key, Role: n.Role, Addr: n.addr})
		switch {
		case n.Role == RoleGateway && r.addr == "":
			r.addr = n.addr
		case n.Role == roleBackend:
			r.backends = append(r.backends, n.addr)
		}
	}
	if r.rec, err = newRecorder(opts.Out, recorded, logf); err != nil {
		return nil, err
	}
	interval := time.Duration(spec.SampleIntervalMS) * time.Millisecond
	r.rec.start(interval)
	var traces *tracePlane
	if spec.TraceEvery > 0 {
		if traces, err = startTraces(opts.Out, nodes, interval, logf); err != nil {
			return nil, errors.Join(err, r.rec.close())
		}
	}

	res, err = r.run(ctx)
	err = errors.Join(err, r.rec.close())
	if traces != nil {
		var spans []dtrace.Span
		if res != nil {
			spans = res.ClientSpans
		}
		err = errors.Join(err, traces.finish(spans))
	}
	return res, err
}

// run drives the phases, or with none records until ctx is done.
func (r *runner) run(ctx context.Context) (*Result, error) {
	res := &Result{
		Name:      r.spec.Name,
		Addr:      r.addr,
		Seed:      r.spec.Seed,
		Artifacts: r.rec.artifacts,
	}

	// The recorder's ticks span the campaign, so the timeline is
	// continuous across phase boundaries. Leaving, the width is restored
	// and later rows carry no phase.
	rows := r.rec.rowCount()
	defer r.rec.switchPhase("", r.origProcs)

	start := time.Now()
	if len(r.spec.Phases) == 0 {
		r.logf("campaign: recording every %dms until stopped", r.spec.SampleIntervalMS)
		<-ctx.Done()
	}
	for i := range r.spec.Phases {
		p := &r.spec.Phases[i]
		rep, spans, err := r.runPhase(ctx, p)
		if err != nil {
			return nil, err
		}
		res.Phases = append(res.Phases, *rep)
		res.ClientSpans = append(res.ClientSpans, spans...)
	}

	res.DurationSec = time.Since(start).Seconds()
	res.Samples = r.rec.rowCount() - rows
	res.Faults = r.faultLog // its writers are joined
	return res, nil
}

// gatewayRead returns a boundary read of the campaign's gateway for
// recorder.boundary: one GET /stats, kept in *snap for the report row.
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
func (r *runner) runPhase(ctx context.Context, p *Phase) (*PhaseReport, []dtrace.Span, error) {
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
			"(gomaxprocs sets this process's width, so it needs an inproc gateway node)",
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
	// shape's width at this offset, until the phase ends or ctx abandons
	// it.
	start := time.Now()
	tick := time.NewTicker(50 * time.Millisecond)
	for ctx.Err() == nil {
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
		select {
		case <-tick.C:
		case <-ctx.Done():
		}
	}
	tick.Stop()

	close(faultStop)
	client := sp.Stop()
	if lp != nil {
		lp.Stop()
	}
	faultWG.Wait()
	activeDur := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("campaign: phase %s abandoned: %w", p.Name, err)
	}

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
