package capacity

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// ControllerConfig parameterizes the model-driven admission controller.
// Zero values take the documented defaults; the Static* fields are the
// operator's fixed flags, which every fallback path returns to.
type ControllerConfig struct {
	// TargetP99 is the latency bound adaptive admission defends: the
	// admission bound is set so the model's predicted p99 at the
	// admitted load stays at or under it.
	TargetP99 time.Duration
	// StaticWorkers and StaticBound are the fixed-flag settings the
	// controller falls back to on stale observations or model
	// divergence.
	StaticWorkers int
	StaticBound   int64
	// MinWorkers/MaxWorkers clamp the pool width (defaults: 1 and
	// StaticWorkers).
	MinWorkers int
	MaxWorkers int
	// MinInflight/MaxInflight clamp the admission bound (defaults:
	// MinWorkers+1 and 4x StaticBound).
	MinInflight int64
	MaxInflight int64
	// Hysteresis is the relative change a recomputed setting needs
	// before the controller moves it (default 0.15) — the damping that
	// keeps the pool and bound from thrashing on noisy windows.
	Hysteresis float64
	// Headroom is the utilization margin worker sizing keeps over the
	// offered load (default 0.25: size for offered*1.25).
	Headroom float64
	// StaleAfter bounds observation age: anything older falls back to
	// the static flags (default 5s).
	StaleAfter time.Duration
	// DivergeFrac is the model-vs-observed throughput error fraction
	// beyond which the model is distrusted and the static flags rule
	// (default 0.5).
	DivergeFrac float64
}

func (c ControllerConfig) withDefaults() (ControllerConfig, error) {
	if c.TargetP99 <= 0 {
		return c, fmt.Errorf("capacity: TargetP99 must be positive, got %v", c.TargetP99)
	}
	if c.StaticWorkers < 1 {
		return c, fmt.Errorf("capacity: StaticWorkers must be >= 1, got %d", c.StaticWorkers)
	}
	if c.StaticBound < 1 {
		return c, fmt.Errorf("capacity: StaticBound must be >= 1, got %d", c.StaticBound)
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = c.StaticWorkers
	}
	if c.MaxWorkers < c.MinWorkers {
		return c, fmt.Errorf("capacity: MaxWorkers %d < MinWorkers %d", c.MaxWorkers, c.MinWorkers)
	}
	if c.MinInflight <= 0 {
		c.MinInflight = int64(c.MinWorkers) + 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * c.StaticBound
	}
	if c.MaxInflight < c.MinInflight {
		return c, fmt.Errorf("capacity: MaxInflight %d < MinInflight %d", c.MaxInflight, c.MinInflight)
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.15
	}
	if c.Headroom <= 0 {
		c.Headroom = 0.25
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
	// Workers is the pool width the window ran with; BackendConns and
	// Backends size the overlapped backend station (0: in-place mode).
	Workers      int
	BackendConns int
	Backends     int
}

// Decision is one control-loop output: the settings to apply plus the
// model view that produced them.
type Decision struct {
	At       time.Time `json:"-"`
	Workers  int       `json:"workers"`
	Bound    int64     `json:"admission_bound"`
	Fallback bool      `json:"fallback"`
	Reason   string    `json:"reason"`
	// AdmissibleLoad is the model's λ*: the highest offered load whose
	// predicted p99 meets the target at the decided width.
	AdmissibleLoad float64 `json:"admissible_per_sec"`
	// Predicted is the model solved at the observed offered load with
	// the decided width; ThroughputErrPct compares its throughput
	// against the observed goodput.
	Predicted        Prediction `json:"predicted"`
	ThroughputErrPct float64    `json:"throughput_err_pct"`
	P99ErrPct        float64    `json:"p99_err_pct"`
}

// ControllerCounters is the lifetime accounting /stats publishes.
type ControllerCounters struct {
	Decisions    uint64 `json:"decisions"`
	BoundChanges uint64 `json:"bound_changes"`
	WidthChanges uint64 `json:"width_changes"`
	Fallbacks    uint64 `json:"fallbacks"`
	Holds        uint64 `json:"holds"`
}

// Controller turns observations into pool-width and admission-bound
// decisions with hysteresis, clamps, and hard fallbacks. Safe for
// concurrent Decide and Last.
type Controller struct {
	cfg ControllerConfig

	mu       sync.Mutex
	cur      Decision
	counters ControllerCounters
}

// NewController validates the configuration and starts from the static
// settings.
func NewController(cfg ControllerConfig) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg: cfg,
		cur: Decision{
			Workers: cfg.StaticWorkers,
			Bound:   cfg.StaticBound,
			Reason:  "initial static settings",
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
	if d.Workers != c.cur.Workers {
		c.counters.WidthChanges++
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
			Workers: cfg.StaticWorkers, Bound: cfg.StaticBound,
			Fallback: true,
			Reason:   fmt.Sprintf("observations stale (age %v > %v); static flags rule", now.Sub(obs.At).Round(time.Millisecond), cfg.StaleAfter),
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

	// Model check at the *observed* width: does the model track reality
	// closely enough to be trusted with admission?
	observedModel := GatewayModel(obs.Demands, GatewayTopology{
		Workers: obs.Workers, BackendConns: obs.BackendConns, Backends: obs.Backends,
	})
	atObserved := observedModel.Predict(obs.OfferedPerSec)
	errPct := ErrPct(atObserved.ThroughputPerSec, obs.GoodputPerSec)
	p99ErrPct := 0.0
	if atObserved.P99US > 0 {
		p99ErrPct = ErrPct(atObserved.P99US, float64(obs.P99.Microseconds()))
	}
	if obs.GoodputPerSec > 0 && errPct > 100*cfg.DivergeFrac {
		return Decision{
			Workers: cfg.StaticWorkers, Bound: cfg.StaticBound,
			Fallback:         true,
			Reason:           fmt.Sprintf("model diverged from measurement (throughput err %.0f%% > %.0f%%); static flags rule", errPct, 100*cfg.DivergeFrac),
			Predicted:        atObserved,
			ThroughputErrPct: errPct,
			P99ErrPct:        p99ErrPct,
		}
	}

	// Width: enough servers to carry the offered load with headroom.
	workers := c.cur.Workers
	if wd := obs.Demands.WorkerDemand(); wd > 0 {
		needed := int(math.Ceil(obs.OfferedPerSec * (1 + cfg.Headroom) * wd))
		needed = clampInt(needed, cfg.MinWorkers, cfg.MaxWorkers)
		if relDiff(float64(needed), float64(workers)) >= cfg.Hysteresis {
			workers = needed
		}
	}

	// Bound: the model at the decided width answers "how many messages
	// may be in the system before predicted p99 breaks the target" —
	// Little's law population at λ*, clamped and damped.
	decidedModel := GatewayModel(obs.Demands, GatewayTopology{
		Workers: workers, BackendConns: obs.BackendConns, Backends: obs.Backends,
	})
	admissible := decidedModel.MaxLoadForP99(float64(cfg.TargetP99.Microseconds()))
	bound := c.cur.Bound
	switch {
	case math.IsInf(admissible, 1):
		bound = cfg.MaxInflight
	case admissible > 0:
		atStar := decidedModel.Predict(admissible)
		want := int64(math.Ceil(atStar.InSystem))
		if min := int64(workers) + 1; want < min {
			want = min
		}
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
		Workers:          workers,
		Bound:            bound,
		Reason:           fmt.Sprintf("model: admissible %.0f/s at width %d for p99<=%v", admissible, workers, cfg.TargetP99),
		AdmissibleLoad:   admissible,
		Predicted:        decidedModel.Predict(obs.OfferedPerSec),
		ThroughputErrPct: errPct,
		P99ErrPct:        p99ErrPct,
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
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
