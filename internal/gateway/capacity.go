package gateway

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/capacity"
	"repro/internal/dtrace"
	"repro/internal/lhist"
	"repro/internal/workload"
)

// capacityLoop is the adaptive-admission control loop: a periodic
// goroutine that windows the gateway's live counters into a
// capacity.Observation, runs the analytic model's controller, and
// applies the decision — moving the admission bound. All windowing
// state (prev* fields) is touched only from the loop goroutine; the
// published view behind mu is what /stats reads.
type capacityLoop struct {
	s        *Server
	ctrl     *capacity.Controller
	interval time.Duration

	stopCh chan struct{}
	doneCh chan struct{}

	// Loop-goroutine-only windowing state.
	prevAt     time.Time
	prevMsgs   uint64
	prevShed   uint64
	prevLat    lhist.Counts
	prevUCLat  [numTraceUseCases]lhist.Counts
	prevStages stageCounts

	mu       sync.Mutex
	lastObs  observedWindow
	lastDec  capacity.Decision
	perUC    map[string]UseCaseModelError
	haveTick bool
}

// observedWindow is the measured side of one control tick, published on
// /stats next to the model's prediction.
type observedWindow struct {
	WindowSec     float64 `json:"window_sec"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	P99US         uint64  `json:"p99_us"`
	// Per-stage mean service demands (microseconds) seeding the model.
	ReadUS    float64 `json:"read_us"`
	ParseUS   float64 `json:"parse_us"`
	ProcessUS float64 `json:"process_us"`
	ForwardUS float64 `json:"forward_us"`
	WriteUS   float64 `json:"write_us"`
}

// UseCaseModelError is the per-use-case model check the acceptance
// criteria ask for: that use case's own model predicted against its own
// measured goodput over the same window.
type UseCaseModelError struct {
	OfferedPerSec   float64 `json:"offered_per_sec"`
	PredictedPerSec float64 `json:"predicted_per_sec"`
	ErrPct          float64 `json:"err_pct"`
}

// CapacitySnapshot is the /stats "capacity" section.
type CapacitySnapshot struct {
	Enabled          bool    `json:"enabled"`
	TargetP99US      int64   `json:"target_p99_us"`
	AdaptIntervalMS  int64   `json:"adapt_interval_ms"`
	Workers          int     `json:"workers"` // GOMAXPROCS: the model's P station
	AdmissionBound   int64   `json:"admission_bound"`
	InitialBound     int64   `json:"initial_bound"`
	Fallback         bool    `json:"fallback"`
	Reason           string  `json:"reason"`
	AdmissiblePerSec float64 `json:"admissible_per_sec"`
	// Model-vs-measured error over the last window.
	ThroughputErrPct float64 `json:"throughput_err_pct"`
	P99ErrPct        float64 `json:"p99_err_pct"`

	Observed   *observedWindow              `json:"observed,omitempty"`
	Predicted  *capacity.Prediction         `json:"predicted,omitempty"`
	PerUseCase map[string]UseCaseModelError `json:"per_usecase,omitempty"`
	Counters   capacity.ControllerCounters  `json:"counters"`
}

// newCapacityLoop builds the controller from cfg, already defaulted by
// New; the loop is bound to its server before start.
func newCapacityLoop(cfg Config) (*capacityLoop, error) {
	ctrl, err := capacity.NewController(capacity.ControllerConfig{
		TargetP99:   cfg.TargetP99,
		MaxInflight: cfg.MaxInflight,
	})
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	return &capacityLoop{
		ctrl:     ctrl,
		interval: cfg.AdaptInterval,
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}, nil
}

func (cl *capacityLoop) start() {
	cl.prevAt = time.Now()
	go cl.run()
}

// stop joins the loop goroutine; after it returns no bound store can
// happen.
func (cl *capacityLoop) stop() {
	close(cl.stopCh)
	<-cl.doneCh
}

func (cl *capacityLoop) run() {
	defer close(cl.doneCh)
	t := time.NewTicker(cl.interval)
	defer t.Stop()
	for {
		select {
		case <-cl.stopCh:
			return
		case now := <-t.C:
			cl.tick(now)
		}
	}
}

// windowedDemands reads the mean stage demands of rows [lo, hi) over the
// window cur − prev, rows aggregated by count. A stage whose window is
// empty falls back to its cumulative mean, so a freshly started gateway
// gets demands as soon as the first traced requests land.
func windowedDemands(cur, prev *stageCounts, lo, hi int) capacity.StageDemands {
	return stageDemands(func(st dtrace.Stage) float64 {
		var winN, winSum, cumN, cumSum uint64
		for slot := lo; slot < hi; slot++ {
			c := cur[slot][st]
			w := c.Sub(prev[slot][st])
			winN += w.N
			winSum += w.SumUS
			cumN += c.N
			cumSum += c.SumUS
		}
		if winN > 0 {
			return float64(winSum) / float64(winN) / 1e6
		}
		if cumN > 0 {
			return float64(cumSum) / float64(cumN) / 1e6
		}
		return 0
	})
}

// tick runs one control step: window the counters, observe, decide,
// apply, publish.
func (cl *capacityLoop) tick(now time.Time) {
	s := cl.s
	window := now.Sub(cl.prevAt).Seconds()
	if window <= 0 {
		return
	}

	msgs := s.Metrics.Messages.Load()
	shed := s.Metrics.Shed.Load()
	lat := s.Metrics.Latency.Counts()
	stages := s.dtr.stages.counts()

	goodput := float64(msgs-cl.prevMsgs) / window
	offered := goodput + float64(shed-cl.prevShed)/window
	latWin := lat.Sub(cl.prevLat)
	p99 := time.Duration(latWin.Quantile(0.99)) * time.Microsecond

	// Every use-case row; the control-plane GET row is excluded — GETs
	// bypass admission.
	demands := windowedDemands(&stages, &cl.prevStages, 0, numTraceUseCases)

	procs := runtime.GOMAXPROCS(0)
	backendConns, backends := 0, 0
	if s.fwd != nil && demands.Forward > 0 {
		backendConns = s.cfg.Upstream.MaxIdlePerBackend
		if backendConns <= 0 {
			backendConns = 8 // the upstream package's default
		}
		backends = 1
	}

	obs := capacity.Observation{
		At:            now,
		OfferedPerSec: offered,
		GoodputPerSec: goodput,
		P99:           p99,
		Demands:       demands,
		Workers:       procs,
		BackendConns:  backendConns,
		Backends:      backends,
	}
	dec := cl.ctrl.Decide(now, obs)

	// Apply: the admission bound is a single atomic store.
	s.admitBound.Store(dec.Bound)

	perUC := cl.perUseCaseErrors(&stages, window, procs, backendConns, backends)

	// Publish for /stats, then roll the window.
	cl.mu.Lock()
	cl.lastObs = observedWindow{
		WindowSec:     window,
		OfferedPerSec: offered,
		GoodputPerSec: goodput,
		P99US:         latWin.Quantile(0.99),
		ReadUS:        demands.Read * 1e6,
		ParseUS:       demands.Parse * 1e6,
		ProcessUS:     demands.Process * 1e6,
		ForwardUS:     demands.Forward * 1e6,
		WriteUS:       demands.Write * 1e6,
	}
	cl.lastDec = dec
	if len(perUC) > 0 {
		cl.perUC = perUC
	}
	cl.haveTick = true
	cl.mu.Unlock()

	cl.prevAt = now
	cl.prevMsgs = msgs
	cl.prevShed = shed
	cl.prevLat = lat
	for i := range s.Metrics.LatencyByUC {
		cl.prevUCLat[i] = s.Metrics.LatencyByUC[i].Counts()
	}
	cl.prevStages = stages
}

// perUseCaseErrors builds each active use case's own model from its own
// windowed stage demands and compares predicted throughput against that
// use case's measured completion rate — the per-use-case model check the
// /stats capacity section reports.
func (cl *capacityLoop) perUseCaseErrors(stages *stageCounts, window float64, procs, backendConns, backends int) map[string]UseCaseModelError {
	s := cl.s
	var out map[string]UseCaseModelError
	for uc := 0; uc < numTraceUseCases; uc++ {
		ucLat := s.Metrics.LatencyByUC[uc].Counts()
		done := float64(ucLat.Sub(cl.prevUCLat[uc]).N) / window
		if done <= 0 {
			continue
		}
		d := windowedDemands(stages, &cl.prevStages, uc, uc+1)
		if d.WorkerDemand() <= 0 {
			continue
		}
		m := capacity.GatewayModel(d, capacity.GatewayTopology{
			Workers: procs, BackendConns: backendConns, Backends: backends,
		})
		p := m.Predict(done)
		if out == nil {
			out = map[string]UseCaseModelError{}
		}
		out[workload.UseCase(uc).String()] = UseCaseModelError{
			OfferedPerSec:   done,
			PredictedPerSec: p.ThroughputPerSec,
			ErrPct:          capacity.ErrPct(p.ThroughputPerSec, done),
		}
	}
	return out
}

// snapshot renders the /stats capacity section.
func (cl *capacityLoop) snapshot() *CapacitySnapshot {
	s := cl.s
	cl.mu.Lock()
	defer cl.mu.Unlock()
	snap := &CapacitySnapshot{
		Enabled:         true,
		TargetP99US:     s.cfg.TargetP99.Microseconds(),
		AdaptIntervalMS: cl.interval.Milliseconds(),
		Workers:         runtime.GOMAXPROCS(0),
		AdmissionBound:  s.admitBound.Load(),
		InitialBound:    s.cfg.MaxInflight,
		Counters:        cl.ctrl.Counters(),
	}
	if !cl.haveTick {
		snap.Reason = "no control tick yet"
		return snap
	}
	snap.Fallback = cl.lastDec.Fallback
	snap.Reason = cl.lastDec.Reason
	snap.AdmissiblePerSec = cl.lastDec.AdmissibleLoad
	snap.ThroughputErrPct = cl.lastDec.ThroughputErrPct
	snap.P99ErrPct = cl.lastDec.P99ErrPct
	obs := cl.lastObs
	snap.Observed = &obs
	pred := cl.lastDec.Predicted
	snap.Predicted = &pred
	if len(cl.perUC) > 0 {
		snap.PerUseCase = make(map[string]UseCaseModelError, len(cl.perUC))
		for k, v := range cl.perUC {
			snap.PerUseCase[k] = v
		}
	}
	return snap
}
