// Package capacity is the analytic queueing model of the gateway: an
// open M/M/c-style network over the client→gateway→backend topology
// that predicts throughput, utilization, queue length, and latency
// percentiles as a function of offered load, GOMAXPROCS, and backend
// replica count.
//
// The model is the live-system analogue of the layered-queueing models
// the paper's methodology implies (and the lqns exemplars in SNIPPETS.md
// spell out): each resource is a station with a per-message service
// demand — the connection goroutines' socket work is a delay station
// (one server per connection, no queueing), the Go scheduler's
// GOMAXPROCS Ps are an M/M/c queueing station whose demand covers the
// parse/process stages, and each backend pool is a queueing station
// holding the forward stage (a goroutine waiting on its backend holds an
// admission slot, not a P). Service demands are seeded from live
// calibration artifacts or measured stage traces; the solver is pure
// arithmetic. aonsim -exp capacity prints its tables offline, and the
// campaign report sets it beside each measured phase.
package capacity

import "math"

// Kind classifies how a station queues.
type Kind int

const (
	// Queue is an M/M/c queueing station: jobs wait when all c servers
	// are busy (the GOMAXPROCS Ps, a bounded backend pool).
	Queue Kind = iota
	// Delay is an infinite-server station: jobs never wait (the
	// connections' socket work — every connection brings its own server).
	Delay
)

func (k Kind) String() string {
	switch k {
	case Queue:
		return "queue"
	case Delay:
		return "delay"
	}
	return "invalid"
}

// Station is one resource in the model.
type Station struct {
	Name string
	Kind Kind
	// Servers is the multiprogramming level c (Ps, pooled
	// connections). Ignored for Delay stations.
	Servers int
	// Demand is the mean service time one message holds a server for,
	// in seconds.
	Demand float64
}

// saturation is the station's maximum sustainable throughput (jobs/s);
// +Inf for delay stations and stations with zero demand.
func (st Station) saturation() float64 {
	if st.Kind == Delay || st.Demand <= 0 {
		return math.Inf(1)
	}
	c := st.Servers
	if c < 1 {
		c = 1
	}
	return float64(c) / st.Demand
}

// Model is an open network of stations every message flows through.
type Model struct {
	Stations []Station
}

// Valid reports whether the model can predict anything: at least one
// station with positive demand.
func (m *Model) Valid() bool {
	if m == nil {
		return false
	}
	for _, st := range m.Stations {
		if st.Demand > 0 {
			return true
		}
	}
	return false
}

// StationReport is one station's steady-state prediction at a given
// arrival rate.
type StationReport struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Servers     int     `json:"servers"`
	DemandUS    float64 `json:"demand_us"`
	Utilization float64 `json:"utilization"` // per-server busy fraction, 0..1 (capped)
	WaitUS      float64 `json:"wait_us"`     // mean queue wait
	ResidenceUS float64 `json:"residence_us"`
	QueueLen    float64 `json:"queue_len"` // mean jobs waiting (not in service)
	Saturated   bool    `json:"saturated"`
}

// Prediction is the network's steady-state answer for one offered load.
type Prediction struct {
	OfferedPerSec    float64 `json:"offered_per_sec"`
	ThroughputPerSec float64 `json:"throughput_per_sec"` // min(offered, bottleneck capacity)
	Saturated        bool    `json:"saturated"`
	Bottleneck       string  `json:"bottleneck,omitempty"` // station that binds at saturation
	// Residence percentiles over the stations; the sojourn distribution is approximated as exponential around the
	// mean (exact for M/M/1, a documented approximation for M/M/c).
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	// InSystem is the mean population over the stations (Little's
	// law).
	InSystem float64         `json:"in_system"`
	Stations []StationReport `json:"stations,omitempty"`
}

// erlangC is the probability an arriving job waits in an M/M/c queue
// with offered load a = λ·D Erlangs spread over c servers (requires
// a < c). Computed with the numerically stable recurrence on the
// inverse of the Erlang-B blocking probability.
func erlangC(c int, a float64) float64 {
	if c < 1 || a <= 0 {
		return 0
	}
	// Erlang B via recurrence: B(0)=1; B(k) = a·B(k-1)/(k + a·B(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	// C = B / (1 - rho·(1-B))
	return b / (1 - rho*(1-b))
}

// solveStation fills one station's report at arrival rate lambda.
func solveStation(st Station, lambda float64) StationReport {
	rep := StationReport{
		Name:     st.Name,
		Kind:     st.Kind.String(),
		Servers:  st.Servers,
		DemandUS: st.Demand * 1e6,
	}
	if st.Demand <= 0 || lambda <= 0 {
		return rep
	}
	if st.Kind == Delay {
		rep.Utilization = 0
		rep.ResidenceUS = st.Demand * 1e6
		return rep
	}
	c := st.Servers
	if c < 1 {
		c = 1
	}
	rep.Servers = c
	a := lambda * st.Demand // offered Erlangs
	rho := a / float64(c)
	if rho >= 1 {
		rep.Utilization = 1
		rep.Saturated = true
		rep.WaitUS = math.Inf(1)
		rep.ResidenceUS = math.Inf(1)
		rep.QueueLen = math.Inf(1)
		return rep
	}
	rep.Utilization = rho
	pw := erlangC(c, a)
	// Wq = C(c,a) / (c·μ − λ), μ = 1/D.
	wq := pw / (float64(c)/st.Demand - lambda)
	rep.WaitUS = wq * 1e6
	rep.ResidenceUS = (wq + st.Demand) * 1e6
	rep.QueueLen = lambda * wq
	return rep
}

// Predict solves the network at one offered arrival rate (messages/s).
func (m *Model) Predict(offered float64) Prediction {
	p := Prediction{OfferedPerSec: offered}
	if !m.Valid() || offered < 0 {
		return p
	}
	// Bottleneck: the station with the lowest saturation throughput.
	capacity := math.Inf(1)
	for _, st := range m.Stations {
		if s := st.saturation(); s < capacity {
			capacity = s
			p.Bottleneck = st.Name
		}
	}
	lambda := offered
	if !math.IsInf(capacity, 1) && offered >= capacity {
		// Saturated: the carried flow is the bottleneck's capacity;
		// residence times are evaluated just under it so the reports
		// stay finite (no Inf in a JSON field).
		p.Saturated = true
		lambda = capacity * 0.999
	}
	p.ThroughputPerSec = math.Min(offered, capacity)

	var meanSec float64
	for _, st := range m.Stations {
		rep := solveStation(st, lambda)
		p.Stations = append(p.Stations, rep)
		if !math.IsInf(rep.ResidenceUS, 1) {
			meanSec += rep.ResidenceUS / 1e6
		}
	}
	p.MeanUS = meanSec * 1e6
	// Exponential-sojourn approximation: percentile q at −mean·ln(1−q).
	// Exact for a single M/M/1 station; a stated approximation for the
	// general network.
	p.P50US = p.MeanUS * math.Ln2
	p.P99US = p.MeanUS * -math.Log(0.01)
	p.InSystem = lambda * meanSec
	return p
}

// MaxLoadForP99 finds the highest offered load whose predicted p99 stays
// at or under targetUS, by bisection inside (0, bottleneck capacity).
// Returns 0 when even an idle system misses the target (demand too
// high), and the saturation capacity when the target is never binding.
func (m *Model) MaxLoadForP99(targetUS float64) float64 {
	if !m.Valid() || targetUS <= 0 {
		return 0
	}
	capacity := math.Inf(1)
	for _, st := range m.Stations {
		if s := st.saturation(); s < capacity {
			capacity = s
		}
	}
	if math.IsInf(capacity, 1) {
		// Delay-only model: load never queues, the target either always
		// or never holds.
		if m.Predict(1).P99US <= targetUS {
			return math.Inf(1)
		}
		return 0
	}
	if m.Predict(capacity*1e-6).P99US > targetUS {
		return 0
	}
	lo, hi := 0.0, capacity
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.Predict(mid).P99US <= targetUS {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ErrPct is |pred−meas| as a percentage of meas (0 when unmeasured) —
// the error column of every model-vs-measured table.
func ErrPct(pred, meas float64) float64 {
	if meas <= 0 {
		return 0
	}
	return 100 * math.Abs(pred-meas) / meas
}

// StageDemands carries the measured per-stage mean service times
// (seconds) that seed a gateway model — the live read/parse/process/
// forward/write breakdown from the traced stage histograms.
type StageDemands struct {
	Read    float64
	Parse   float64
	Process float64
	Forward float64
	Write   float64
}

// WorkerDemand is the time one message holds a P: parse + process. The
// forward round trip blocks the message's goroutine, not a P.
func (d StageDemands) WorkerDemand() float64 { return d.Parse + d.Process }

// FrontendDemand is the connection goroutine's socket time per message:
// framing the request plus writing the response.
func (d StageDemands) FrontendDemand() float64 { return d.Read + d.Write }

// Total is the full no-contention service time.
func (d StageDemands) Total() float64 {
	return d.Read + d.Parse + d.Process + d.Forward + d.Write
}

// GatewayTopology sizes the client→gateway→backend model.
type GatewayTopology struct {
	// Workers is the server count of the "workers" station: GOMAXPROCS,
	// the Ps every message's parse and process run on.
	Workers int
	// BackendConns bounds each backend pool (0: pool size unknown — the
	// forward stage is then a delay station).
	BackendConns int
	// Backends is the number of backend replicas (default 1 when
	// BackendConns > 0); each adds a pool.
	Backends int
}

// GatewayModel builds the standard gateway network from measured stage
// demands: a delay station for the connections' socket work, an M/M/c
// station for the Ps, and (in forwarding mode) a station for the
// backend round trip — M/M/c over every replica's pool when the pool
// bound is known, a delay station otherwise.
func GatewayModel(d StageDemands, topo GatewayTopology) *Model {
	m := &Model{}
	if fd := d.FrontendDemand(); fd > 0 {
		m.Stations = append(m.Stations, Station{Name: "frontend", Kind: Delay, Demand: fd})
	}
	m.Stations = append(m.Stations, Station{
		Name: "workers", Kind: Queue, Servers: max(topo.Workers, 1), Demand: d.WorkerDemand(),
	})
	if d.Forward > 0 {
		backends := Station{Name: "backends", Kind: Delay, Demand: d.Forward}
		if topo.BackendConns > 0 {
			backends.Kind = Queue
			backends.Servers = topo.BackendConns * max(topo.Backends, 1)
		}
		m.Stations = append(m.Stations, backends)
	}
	return m
}
