package capacity

import (
	"math"
	"testing"
)

const (
	msD  = 0.010 // 10ms service demand used throughout
	tolF = 1e-9
)

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestMM1ClosedForm pins the solver against the textbook M/M/1 results
// at several loads: R = D/(1-rho), U = rho, Lq = rho^2/(1-rho), and the
// exponential sojourn percentiles that are exact for M/M/1.
func TestMM1ClosedForm(t *testing.T) {
	m := &Model{Stations: []Station{{Name: "workers", Kind: Queue, Servers: 1, Demand: msD}}}
	mu := 1 / msD // 100/s
	for _, lambda := range []float64{10, 50, 80, 95} {
		p := m.Predict(lambda)
		rho := lambda / mu
		wantR := msD / (1 - rho) // seconds
		if !closeTo(p.MeanUS, wantR*1e6, 1e-3) {
			t.Fatalf("lambda=%v: mean %v us, want %v", lambda, p.MeanUS, wantR*1e6)
		}
		if p.ThroughputPerSec != lambda || p.Saturated {
			t.Fatalf("lambda=%v: throughput %v saturated=%v", lambda, p.ThroughputPerSec, p.Saturated)
		}
		st := p.Stations[0]
		if !closeTo(st.Utilization, rho, tolF) {
			t.Fatalf("lambda=%v: util %v, want %v", lambda, st.Utilization, rho)
		}
		wantLq := rho * rho / (1 - rho)
		if !closeTo(st.QueueLen, wantLq, 1e-6) {
			t.Fatalf("lambda=%v: Lq %v, want %v", lambda, st.QueueLen, wantLq)
		}
		// Exact M/M/1 sojourn percentiles: -ln(1-q)/(mu-lambda).
		wantP99 := -math.Log(0.01) / (mu - lambda) * 1e6
		if !closeTo(p.P99US, wantP99, 1e-3) {
			t.Fatalf("lambda=%v: p99 %v us, want %v", lambda, p.P99US, wantP99)
		}
		// Little's law population.
		if !closeTo(p.InSystem, lambda*wantR, 1e-6) {
			t.Fatalf("lambda=%v: in-system %v, want %v", lambda, p.InSystem, lambda*wantR)
		}
	}
}

// TestMMCClosedForm pins M/M/2 against the standard closed form: the
// waiting probability for c=2 is 2*rho^2/(1+rho) and Wq = Pw/(c*mu-lambda).
func TestMMCClosedForm(t *testing.T) {
	m := &Model{Stations: []Station{{Name: "workers", Kind: Queue, Servers: 2, Demand: msD}}}
	mu := 1 / msD
	for _, lambda := range []float64{50, 100, 150, 190} {
		p := m.Predict(lambda)
		rho := lambda / (2 * mu)
		pw := 2 * rho * rho / (1 + rho)
		wq := pw / (2*mu - lambda)
		wantMean := (wq + msD) * 1e6
		if !closeTo(p.MeanUS, wantMean, 1e-3) {
			t.Fatalf("lambda=%v: mean %v us, want %v", lambda, p.MeanUS, wantMean)
		}
		st := p.Stations[0]
		if !closeTo(st.Utilization, rho, tolF) {
			t.Fatalf("lambda=%v: util %v, want %v", lambda, st.Utilization, rho)
		}
		if !closeTo(st.WaitUS, wq*1e6, 1e-3) {
			t.Fatalf("lambda=%v: wait %v us, want %v", lambda, st.WaitUS, wq*1e6)
		}
		if !closeTo(st.QueueLen, lambda*wq, 1e-6) {
			t.Fatalf("lambda=%v: Lq %v, want %v", lambda, st.QueueLen, lambda*wq)
		}
	}
}

// TestSaturationAsymptote drives past capacity: throughput pins at c/D,
// the prediction is flagged saturated, and the bottleneck is named.
func TestSaturationAsymptote(t *testing.T) {
	m := &Model{Stations: []Station{{Name: "workers", Kind: Queue, Servers: 4, Demand: msD}}}
	capacity := 4 / msD // 400/s
	for _, lambda := range []float64{400, 500, 4000} {
		p := m.Predict(lambda)
		if !p.Saturated {
			t.Fatalf("lambda=%v: not saturated", lambda)
		}
		if !closeTo(p.ThroughputPerSec, capacity, tolF) {
			t.Fatalf("lambda=%v: throughput %v, want %v", lambda, p.ThroughputPerSec, capacity)
		}
		if p.Bottleneck != "workers" {
			t.Fatalf("lambda=%v: bottleneck %q", lambda, p.Bottleneck)
		}
		if math.IsInf(p.MeanUS, 1) || math.IsNaN(p.MeanUS) {
			t.Fatalf("lambda=%v: saturated mean must stay finite, got %v", lambda, p.MeanUS)
		}
	}
	// Below capacity throughput equals offered.
	if p := m.Predict(399); p.Saturated || p.ThroughputPerSec != 399 {
		t.Fatalf("just under capacity mispredicted: %+v", p)
	}
}

// TestTandemNetwork checks a two-station tandem: residence adds, the
// slower station is the bottleneck, and each station's report matches
// its own closed form at the shared flow.
func TestTandemNetwork(t *testing.T) {
	fast := Station{Name: "parse", Kind: Queue, Servers: 1, Demand: 0.002}
	slow := Station{Name: "validate", Kind: Queue, Servers: 1, Demand: 0.008}
	m := &Model{Stations: []Station{fast, slow}}
	lambda := 100.0
	p := m.Predict(lambda)
	wantFast := fast.Demand / (1 - lambda*fast.Demand)
	wantSlow := slow.Demand / (1 - lambda*slow.Demand)
	if !closeTo(p.MeanUS, (wantFast+wantSlow)*1e6, 1e-3) {
		t.Fatalf("tandem mean %v us, want %v", p.MeanUS, (wantFast+wantSlow)*1e6)
	}
	if p.Bottleneck != "validate" {
		t.Fatalf("tandem bottleneck %q, want validate", p.Bottleneck)
	}
	if sat := m.Predict(1000); !sat.Saturated || !closeTo(sat.ThroughputPerSec, 1/slow.Demand, tolF) {
		t.Fatalf("tandem saturation wrong: %+v", sat)
	}
}

// TestDelayStationNeverQueues: a delay station contributes its demand to
// residence, no wait, and never saturates.
func TestDelayStationNeverQueues(t *testing.T) {
	m := &Model{Stations: []Station{
		{Name: "frontend", Kind: Delay, Demand: 0.001},
		{Name: "workers", Kind: Queue, Servers: 2, Demand: msD},
	}}
	p := m.Predict(100)
	rho := 100 * msD / 2
	pw := 2 * rho * rho / (1 + rho)
	wq := pw / (2/msD - 100)
	want := (0.001 + wq + msD) * 1e6
	if !closeTo(p.MeanUS, want, 1e-3) {
		t.Fatalf("delay+queue mean %v us, want %v", p.MeanUS, want)
	}
	if p.Bottleneck != "workers" {
		t.Fatalf("bottleneck %q, want workers (delay never binds)", p.Bottleneck)
	}
}

// TestMaxLoadForP99 checks the bisection against the exact M/M/1
// inversion: p99(lambda) = ln(100)/(mu-lambda) <= T gives
// lambda* = mu - ln(100)/T.
func TestMaxLoadForP99(t *testing.T) {
	m := &Model{Stations: []Station{{Name: "workers", Kind: Queue, Servers: 1, Demand: msD}}}
	mu := 1 / msD
	targetUS := 100000.0 // 100ms
	want := mu - (-math.Log(0.01))/(targetUS/1e6)
	got := m.MaxLoadForP99(targetUS)
	if !closeTo(got, want, 1e-3) {
		t.Fatalf("lambda* = %v, want %v", got, want)
	}
	// The returned load really meets the target and a nudge above breaks it.
	if p := m.Predict(got); p.P99US > targetUS*(1+1e-6) {
		t.Fatalf("p99 at lambda* = %v > target %v", p.P99US, targetUS)
	}
	if p := m.Predict(got + 1); p.P99US <= targetUS {
		t.Fatalf("lambda*+1 still meets target: %v", p.P99US)
	}
	// An unmeetable target (tighter than the bare service time) admits 0.
	if got := m.MaxLoadForP99(1); got != 0 {
		t.Fatalf("impossible target admitted %v", got)
	}
}

// TestGatewayModelShape: the standard topology builder folds stages into
// the right stations and drops what it cannot model.
func TestGatewayModelShape(t *testing.T) {
	d := StageDemands{Read: 0.0001, Parse: 0.001, Process: 0.002, Forward: 0.003, Write: 0.0002}
	m := GatewayModel(d, GatewayTopology{Workers: 4, BackendConns: 8, Backends: 2})
	if len(m.Stations) != 3 {
		t.Fatalf("stations = %d, want 3: %+v", len(m.Stations), m.Stations)
	}
	byName := map[string]Station{}
	for _, st := range m.Stations {
		byName[st.Name] = st
	}
	if fe := byName["frontend"]; fe.Kind != Delay || !closeTo(fe.Demand, 0.0003, tolF) {
		t.Fatalf("frontend wrong: %+v", fe)
	}
	// The Ps run parse + process; the forward round trip holds no P.
	if w := byName["workers"]; w.Servers != 4 || !closeTo(w.Demand, 0.003, tolF) {
		t.Fatalf("workers wrong: %+v", w)
	}
	// Each message holds one pooled connection for the round trip; the
	// replicas add pools.
	if b := byName["backends"]; b.Kind != Queue || b.Servers != 16 || !closeTo(b.Demand, 0.003, tolF) {
		t.Fatalf("backends wrong: %+v", b)
	}
	// The round trip is residence time: the waiting goroutine holds an
	// admission slot, so it counts toward the in-system population.
	if p := m.Predict(100); p.MeanUS < (d.Total()-1e-9)*1e6 {
		t.Fatalf("mean %vus below the no-contention total %vus", p.MeanUS, d.Total()*1e6)
	}
	// Pool bound unknown: the round trip is a delay station.
	if b := GatewayModel(d, GatewayTopology{Workers: 4}).Stations[2]; b.Name != "backends" || b.Kind != Delay {
		t.Fatalf("unbounded backends wrong: %+v", b)
	}
	// In-place mode: no backend station.
	if m := GatewayModel(StageDemands{Parse: 0.001, Process: 0.001}, GatewayTopology{Workers: 2}); len(m.Stations) != 1 {
		t.Fatalf("in-place model has %d stations, want 1", len(m.Stations))
	}
	if (&Model{}).Valid() {
		t.Fatal("empty model claims validity")
	}
}
