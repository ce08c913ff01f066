package capacity

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// ControllerConfig parameterizes the model-driven admission controller.
// Zero values take the documented defaults; MaxInflight is the
// operator's bound, where the controller starts and where every
// fallback returns.
type ControllerConfig struct {
	// TargetP99 is the latency bound adaptive admission defends: the
	// admission bound is set so the model's predicted p99 at the
	// admitted load stays at or under it.
	TargetP99 time.Duration
	// MaxInflight is the admission bound's ceiling, its initial value,
	// and the setting the controller falls back to on stale observations
	// or model divergence.
	MaxInflight int64
	// MinInflight is the admission bound's floor (default GOMAXPROCS+1:
	// every P busy with one message waiting).
	MinInflight int64
	// Hysteresis is the relative change a recomputed bound needs before
	// the controller moves it (default 0.15) — the damping that keeps
	// the bound from thrashing on noisy windows.
	Hysteresis float64
	// StaleAfter bounds observation age: anything older falls back to
	// MaxInflight (default 5s).
	StaleAfter time.Duration
	// DivergeFrac is the model-vs-observed throughput error fraction
	// beyond which the model is distrusted and MaxInflight rules
	// (default 0.5).
	DivergeFrac float64
}

func (c ControllerConfig) withDefaults() (ControllerConfig, error) {
	if c.TargetP99 <= 0 {
		return c, fmt.Errorf("capacity: TargetP99 must be positive, got %v", c.TargetP99)
	}
	if c.MaxInflight < 1 {
		return c, fmt.Errorf("capacity: MaxInflight must be >= 1, got %d", c.MaxInflight)
	}
	if c.MinInflight <= 0 {
		c.MinInflight = int64(runtime.GOMAXPROCS(0)) + 1
	}
	if c.MaxInflight < c.MinInflight {
		return c, fmt.Errorf("capacity: MaxInflight %d < MinInflight %d", c.MaxInflight, c.MinInflight)
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.15
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 5 * time.Second
	}
	if c.DivergeFrac <= 0 {
		c.DivergeFrac = 0.5
	}
	return c, nil
}

// Observation is one control-loop input: what the gateway measured over
// the last window, plus the demands that seed the model.
type Observation struct {
	// At stamps when the observation was taken; the controller treats
	// observations older than StaleAfter as a sampling failure.
	At time.Time
	// OfferedPerSec is the arrival rate including shed messages;
	// GoodputPerSec counts only completed ones.
	OfferedPerSec float64
	GoodputPerSec float64
	// P99 is the observed windowed latency percentile.
	P99 time.Duration
	// Demands are the measured per-stage service times seeding the
	// model (zero WorkerDemand means no stage traces landed yet).
	Demands StageDemands
	// Workers is the GOMAXPROCS the window ran with; BackendConns and
	// Backends size the backend station (0: pool size unknown).
	Workers      int
	BackendConns int
	Backends     int
}

// Decision is one control-loop output: the bound to apply plus the model
// view that produced it.
type Decision struct {
	At       time.Time `json:"-"`
	Bound    int64     `json:"admission_bound"`
	Fallback bool      `json:"fallback"`
	Reason   string    `json:"reason"`
	// AdmissibleLoad is the model's λ*: the highest offered load whose
	// predicted p99 meets the target.
	AdmissibleLoad float64 `json:"admissible_per_sec"`
	// Predicted is the model solved at the observed offered load;
	// ThroughputErrPct compares its throughput against the observed
	// goodput.
	Predicted        Prediction `json:"predicted"`
	ThroughputErrPct float64    `json:"throughput_err_pct"`
	P99ErrPct        float64    `json:"p99_err_pct"`
}

// ControllerCounters is the lifetime accounting /stats publishes.
type ControllerCounters struct {
	Decisions    uint64 `json:"decisions"`
	BoundChanges uint64 `json:"bound_changes"`
	Fallbacks    uint64 `json:"fallbacks"`
	Holds        uint64 `json:"holds"`
}

// Controller turns observations into admission-bound decisions with
// hysteresis, clamps, and hard fallbacks. Safe for concurrent Decide and
// Last.
type Controller struct {
	cfg ControllerConfig

	mu       sync.Mutex
	cur      Decision
	counters ControllerCounters
}

// NewController validates the configuration and starts from
// MaxInflight.
func NewController(cfg ControllerConfig) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg: cfg,
		cur: Decision{
			Bound:  cfg.MaxInflight,
			Reason: "initial bound",
		},
	}, nil
}

// Config reports the effective (defaulted) configuration.
func (c *Controller) Config() ControllerConfig { return c.cfg }

// Last returns the most recent decision.
func (c *Controller) Last() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// Counters reports the lifetime decision accounting.
func (c *Controller) Counters() ControllerCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Decide runs one control step and records (and returns) the decision.
func (c *Controller) Decide(now time.Time, obs Observation) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters.Decisions++

	d := c.step(now, obs)
	d.At = now
	if d.Bound != c.cur.Bound {
		c.counters.BoundChanges++
	}
	if d.Fallback {
		c.counters.Fallbacks++
	}
	c.cur = d
	return d
}

// step computes the next decision against the current one (mu held).
func (c *Controller) step(now time.Time, obs Observation) Decision {
	cfg := c.cfg
	if obs.At.IsZero() || now.Sub(obs.At) > cfg.StaleAfter {
		return Decision{
			Bound:    cfg.MaxInflight,
			Fallback: true,
			Reason:   fmt.Sprintf("observations stale (age %v > %v); max inflight rules", now.Sub(obs.At).Round(time.Millisecond), cfg.StaleAfter),
		}
	}
	if obs.Demands.WorkerDemand() <= 0 {
		d := c.cur
		d.Reason = "no stage demands measured yet; holding"
		c.counters.Holds++
		return d
	}
	if obs.GoodputPerSec <= 0 && obs.OfferedPerSec <= 0 {
		d := c.cur
		d.Reason = "idle window; holding"
		c.counters.Holds++
		return d
	}

	// Model check: does the model track reality closely enough to be
	// trusted with admission?
	m := GatewayModel(obs.Demands, GatewayTopology{
		Workers: obs.Workers, BackendConns: obs.BackendConns, Backends: obs.Backends,
	})
	atObserved := m.Predict(obs.OfferedPerSec)
	errPct := ErrPct(atObserved.ThroughputPerSec, obs.GoodputPerSec)
	p99ErrPct := 0.0
	if atObserved.P99US > 0 {
		p99ErrPct = ErrPct(atObserved.P99US, float64(obs.P99.Microseconds()))
	}
	if obs.GoodputPerSec > 0 && errPct > 100*cfg.DivergeFrac {
		return Decision{
			Bound:            cfg.MaxInflight,
			Fallback:         true,
			Reason:           fmt.Sprintf("model diverged from measurement (throughput err %.0f%% > %.0f%%); max inflight rules", errPct, 100*cfg.DivergeFrac),
			Predicted:        atObserved,
			ThroughputErrPct: errPct,
			P99ErrPct:        p99ErrPct,
		}
	}

	// Bound: the model answers "how many messages may be in the system
	// before predicted p99 breaks the target" — Little's law population
	// at λ*, clamped and damped.
	admissible := m.MaxLoadForP99(float64(cfg.TargetP99.Microseconds()))
	bound := c.cur.Bound
	switch {
	case math.IsInf(admissible, 1):
		bound = cfg.MaxInflight
	case admissible > 0:
		want := int64(math.Ceil(m.Predict(admissible).InSystem))
		want = clampInt64(want, cfg.MinInflight, cfg.MaxInflight)
		if relDiff(float64(want), float64(bound)) >= cfg.Hysteresis {
			bound = want
		}
	default:
		// Even an idle system misses the target: admit as little as the
		// floor allows.
		bound = cfg.MinInflight
	}

	return Decision{
		Bound:            bound,
		Reason:           fmt.Sprintf("model: admissible %.0f/s on %d Ps for p99<=%v", admissible, obs.Workers, cfg.TargetP99),
		AdmissibleLoad:   admissible,
		Predicted:        atObserved,
		ThroughputErrPct: errPct,
		P99ErrPct:        p99ErrPct,
	}
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// relDiff is |a-b| relative to b (b=0 counts as a full change).
func relDiff(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return math.Abs(a-b) / math.Abs(b)
}
