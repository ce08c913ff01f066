package gateway

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/upstream"
	"repro/internal/workload"
)

// TestAdaptiveConfigValidation pins the knob validation New applies.
func TestAdaptiveConfigValidation(t *testing.T) {
	bad := []Config{
		{TargetP99: -time.Second},
		{AdaptInterval: -time.Second},
		{MaxInflight: -1},
		// The adaptive floor is GOMAXPROCS+1; a ceiling below it is refused.
		{Adaptive: true, MaxInflight: int64(runtime.GOMAXPROCS(0))},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Static default: the bound is 5x GOMAXPROCS.
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := srv.admitBound.Load(), 5*int64(runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("default admission bound %d, want 5x GOMAXPROCS = %d", got, want)
	}
	// Adaptive defaults: tracing implied, bound starts at the ceiling.
	ceiling := 2*int64(runtime.GOMAXPROCS(0)) + 2
	srv, err = New(Config{Adaptive: true, MaxInflight: ceiling})
	if err != nil {
		t.Fatal(err)
	}
	if srv.dtr == nil {
		t.Fatal("adaptive mode must imply tracing")
	}
	if srv.capacity == nil {
		t.Fatal("adaptive mode must build the control loop")
	}
	if got := srv.admitBound.Load(); got != ceiling {
		t.Fatalf("initial admission bound %d, want ceiling %d", got, ceiling)
	}
}

// TestAdaptiveAdmissionEndToEnd is the control loop live: a gateway with
// an aggressive p99 target and a deliberate per-message stall is driven
// to overload; the model must take decisions, pull the admission bound
// down from its wide-open initial ceiling, and publish the capacity
// section on /stats with both observed and predicted sides filled.
func TestAdaptiveAdmissionEndToEnd(t *testing.T) {
	srv := startServer(t, Config{
		Adaptive:      true,
		TargetP99:     5 * time.Millisecond,
		AdaptInterval: 20 * time.Millisecond,
		ProcessDelay:  2 * time.Millisecond,
	})
	addr := srv.Addr().String()
	initial := srv.cfg.MaxInflight

	// Overload: 8 connections pushing as fast as they can, each message
	// holding a P for >= 2ms.
	if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 8, Messages: 400}); err != nil {
		t.Fatal(err)
	}

	// The loop is asynchronous: wait for it to both decide and move the
	// bound off the ceiling (2ms demand vs a 5ms p99 target admits no
	// more than the floor).
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := srv.capacity.snapshot()
		if snap.Counters.Decisions > 0 && snap.AdmissionBound != initial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission bound never moved: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The wire-visible /stats must carry the capacity section. Two GETs
	// on one connection: a GET's own spans are folded after its response
	// is written, so the second scrape is the one that sees the first.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var resp *ClientResp
	for i := 0; i < 2; i++ {
		resp, err = cl.Do([]byte("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"), 5*time.Second)
		if err != nil || resp.Status != 200 {
			t.Fatalf("GET /stats: resp=%+v err=%v", resp, err)
		}
	}
	var snap Snapshot
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		t.Fatalf("stats body not JSON: %v\n%s", err, resp.Body)
	}
	c := snap.Capacity
	if c == nil || !c.Enabled {
		t.Fatalf("stats missing capacity section: %+v", snap.Capacity)
	}
	if c.AdmissionBound <= 0 || c.AdmissionBound == c.InitialBound {
		t.Fatalf("admission bound %d never left the initial %d", c.AdmissionBound, c.InitialBound)
	}
	if c.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("capacity section workers %d, want GOMAXPROCS: %+v", c.Workers, c)
	}
	if c.Counters.Decisions == 0 {
		t.Fatalf("no decisions recorded: %+v", c.Counters)
	}
	if c.Observed == nil || c.Observed.ProcessUS <= 0 {
		t.Fatalf("observed window missing stage demands: %+v", c.Observed)
	}
	if c.Predicted == nil || c.Predicted.ThroughputPerSec <= 0 {
		t.Fatalf("prediction missing: %+v", c.Predicted)
	}
	// GET requests themselves were traced into the control row.
	if g := snap.Stages["GET"]; g["read"].Count == 0 || g["process"].Count == 0 || g["write"].Count == 0 {
		t.Fatalf("control-plane GET row missing from stages: %v", snap.Stages)
	}
}

// TestAdaptiveShedsUnderOverload shows the moved bound doing its job:
// once the model pulls admission down, sustained overload sheds with
// 503s while goodput continues — the paper-style overload behavior the
// EXPERIMENTS recipe sweeps. The overload is a slow backend: a goroutine
// waiting on its round trip holds an admission slot but no P, so the
// connections pile up in flight and the bound is what stops them (a
// CPU-bound overload waits in the scheduler's run queue instead, before
// admission).
func TestAdaptiveShedsUnderOverload(t *testing.T) {
	slow := startBackend(t, upstream.BackendConfig{Name: "order", Delay: 4 * time.Millisecond})
	srv := startServer(t, Config{
		Adaptive:      true,
		TargetP99:     2 * time.Millisecond,
		AdaptInterval: 15 * time.Millisecond,
		Upstream:      upstream.Config{Order: slow.Addr().String()},
	})
	addr := srv.Addr().String()

	// First wave teaches the model the demand; second wave runs against
	// the tightened bound.
	if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 6, Messages: 120}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.capacity.snapshot().Counters.Decisions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("control loop never decided")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Each connection holds at most one message in flight, so the load
	// must outnumber the adaptive floor (GOMAXPROCS+1) to overrun it.
	conns := 2 * (runtime.GOMAXPROCS(0) + 1)
	rep, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: conns, Messages: 30 * conns})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatalf("adaptive admission starved all goodput: %+v", rep)
	}
	snap := srv.Metrics.Snapshot()
	if snap.Shed == 0 {
		t.Fatalf("overload against a 2ms target with a 4ms backend must shed: %+v", rep)
	}
}
