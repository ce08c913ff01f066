package gateway

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestPoolResize exercises the resizable worker pool directly: grow and
// shrink move the live width, retired workers exit cleanly, and the
// gateway keeps serving across both transitions.
func TestPoolResize(t *testing.T) {
	srv := startServer(t, Config{Workers: 2})
	addr := srv.Addr().String()

	if got := srv.Workers(); got != 2 {
		t.Fatalf("initial width %d, want 2", got)
	}
	srv.setPoolSize(6)
	if got := srv.Workers(); got != 6 {
		t.Fatalf("after grow width %d, want 6", got)
	}
	if rep, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 4, Messages: 80}); err != nil || rep.OK != 80 {
		t.Fatalf("load after grow: rep=%+v err=%v", rep, err)
	}
	srv.setPoolSize(1)
	if got := srv.Workers(); got != 1 {
		t.Fatalf("after shrink width %d, want 1", got)
	}
	if rep, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 2, Messages: 40}); err != nil || rep.OK != 40 {
		t.Fatalf("load after shrink: rep=%+v err=%v", rep, err)
	}
}

// TestAdaptiveConfigValidation pins the knob validation New applies.
func TestAdaptiveConfigValidation(t *testing.T) {
	bad := []Config{
		{TargetP99: -time.Second},
		{AdaptInterval: -time.Second},
		{MinWorkers: -1},
		{MaxWorkers: -1},
		{MaxInflight: -1},
		{Adaptive: true, Workers: 2, MinWorkers: 4, MaxWorkers: 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Adaptive defaults: tracing implied, bound starts at the ceiling.
	srv, err := New(Config{Adaptive: true, Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if srv.dtr == nil {
		t.Fatal("adaptive mode must imply tracing")
	}
	if srv.capacity == nil {
		t.Fatal("adaptive mode must build the control loop")
	}
	want := int64(16 * (2 + 4))
	if got := srv.admitBound.Load(); got != want {
		t.Fatalf("initial admission bound %d, want ceiling %d", got, want)
	}
}

// TestAdaptiveAdmissionEndToEnd is the control loop live: a gateway with
// an aggressive p99 target and a deliberate per-message stall is driven
// to overload; the model must take decisions, pull the admission bound
// down from its wide-open initial ceiling, and publish the capacity
// section on /stats with both observed and predicted sides filled.
func TestAdaptiveAdmissionEndToEnd(t *testing.T) {
	srv := startServer(t, Config{
		Workers:       2,
		QueueDepth:    4,
		Adaptive:      true,
		TargetP99:     5 * time.Millisecond,
		AdaptInterval: 20 * time.Millisecond,
		ProcessDelay:  2 * time.Millisecond,
	})
	addr := srv.Addr().String()
	initial := srv.cfg.MaxInflight

	// Overload: 8 connections pushing as fast as they can against two
	// workers that each spend >= 2ms per message.
	if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 8, Messages: 400}); err != nil {
		t.Fatal(err)
	}

	// The loop is asynchronous: wait for it to both decide and move the
	// bound off the ceiling (2ms demand vs a 5ms p99 target cannot
	// admit anywhere near 16x the static bound).
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
	if c.Workers <= 0 {
		t.Fatalf("capacity section reports no workers: %+v", c)
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
// EXPERIMENTS recipe sweeps.
func TestAdaptiveShedsUnderOverload(t *testing.T) {
	srv := startServer(t, Config{
		Workers:       1,
		QueueDepth:    2,
		Adaptive:      true,
		TargetP99:     2 * time.Millisecond,
		AdaptInterval: 15 * time.Millisecond,
		ProcessDelay:  4 * time.Millisecond,
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
	rep, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 8, Messages: 240})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatalf("adaptive admission starved all goodput: %+v", rep)
	}
	snap := srv.Metrics.Snapshot()
	if snap.Shed == 0 {
		t.Fatalf("overload against a 2ms target with 4ms demand must shed: %+v", rep)
	}
}
