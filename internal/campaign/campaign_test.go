package campaign

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/session"
	"repro/internal/upstream"
)

// startBackend brings up one aonback on loopback for fault scripting.
func startBackend(t *testing.T) *upstream.BackendServer {
	t.Helper()
	b, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{Name: "order", RespBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestFaultScript drives the phase fault scripter against a live
// backend: steps fire in at_ms order regardless of spec order, each
// acknowledgment carries the applied state, and a final clear resets it.
func TestFaultScript(t *testing.T) {
	b := startBackend(t)
	addr := b.Addr().String()

	one := 1.0
	zero := int64(3)
	r := &runner{
		spec:    &Spec{Backends: []string{addr}},
		timeout: 2 * time.Second,
		logf:    func(string, ...any) {},
	}
	phase := &Phase{
		Name:       "storm",
		DurationMS: 1000,
		Faults: []FaultStep{
			// Deliberately out of order: the 60ms step is listed first.
			{AtMS: 60, Backend: 0, Fault: upstream.FaultSpec{Clear: true}},
			{AtMS: 10, Backend: 0, Fault: upstream.FaultSpec{ErrorRate: &one, FailNext: &zero}},
		},
	}
	stop := make(chan struct{})
	defer close(stop)
	r.faultScript(phase, stop)

	if len(r.faultLog) != 2 {
		t.Fatalf("fault log has %d events, want 2: %+v", len(r.faultLog), r.faultLog)
	}
	first, second := r.faultLog[0], r.faultLog[1]
	if first.AtMS != 10 || second.AtMS != 60 {
		t.Fatalf("steps fired out of order: %d then %d", first.AtMS, second.AtMS)
	}
	if first.Err != "" || first.State == nil || !first.State.Active ||
		first.State.ErrorRate != 1 || first.State.FailNext != 3 {
		t.Fatalf("first ack wrong: %+v err=%q", first.State, first.Err)
	}
	if second.Err != "" || second.State == nil || second.State.Active {
		t.Fatalf("clear ack wrong: %+v err=%q", second.State, second.Err)
	}

	// The backend's own view agrees after the script.
	st, err := getFault(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Active || st.ErrorRate != 0 || st.FailNext != 0 {
		t.Fatalf("backend state not cleared: %+v", st)
	}
}

// TestFaultPostUnreachable pins the contract that a fault storm against
// a dead backend is logged, not fatal.
func TestFaultPostUnreachable(t *testing.T) {
	r := &runner{
		spec:    &Spec{Backends: []string{"127.0.0.1:1"}},
		timeout: 200 * time.Millisecond,
		logf:    func(string, ...any) {},
	}
	phase := &Phase{
		Name:       "dead",
		DurationMS: 100,
		Faults:     []FaultStep{{AtMS: 0, Backend: 0, Fault: upstream.FaultSpec{Clear: true}}},
	}
	stop := make(chan struct{})
	defer close(stop)
	r.faultScript(phase, stop)
	if len(r.faultLog) != 1 || r.faultLog[0].Err == "" {
		t.Fatalf("dead-backend step not logged as error: %+v", r.faultLog)
	}
}

// TestCampaignEndToEnd runs a three-phase campaign — constant warmup, a
// flash crowd with a scripted fault storm, and a slow-loris siege —
// against a live in-process gateway, then checks the per-phase report
// rows, the fault log, the slow-loris shed-without-starvation contract,
// and the session artifacts.
func TestCampaignEndToEnd(t *testing.T) {
	srv, err := gateway.New(gateway.Config{
		Trace:       true,
		IdleTimeout: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	b := startBackend(t)

	one := 1.0
	spec := &Spec{
		Name:             "e2e",
		Backends:         []string{b.Addr().String()},
		SampleIntervalMS: 50,
		TimeoutMS:        3000,
		Phases: []Phase{
			{Name: "warmup", Shape: ShapeConstant, UseCase: "FR", DurationMS: 400, Conns: 2},
			{Name: "surge", Shape: ShapeFlash, UseCase: "XJ", DurationMS: 500,
				Conns: 1, BurstConns: 4, BurstMS: 150, DecayMS: 100,
				Faults: []FaultStep{
					{AtMS: 50, Backend: 0, Fault: upstream.FaultSpec{ErrorRate: &one}},
					{AtMS: 300, Backend: 0, Fault: upstream.FaultSpec{Clear: true}},
				}},
			{Name: "siege", Shape: ShapeSlowloris, UseCase: "FR", DurationMS: 700,
				Conns: 3, BackgroundConns: 2, TrickleIntervalMS: 300},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	res, err := Run(spec, Options{Addr: srv.Addr().String(), OutDir: outDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phase reports, want 3", len(res.Phases))
	}

	warmup, surge, siege := &res.Phases[0], &res.Phases[1], &res.Phases[2]
	if warmup.OK == 0 || warmup.OKPerSec <= 0 || warmup.Forwarded == 0 {
		t.Fatalf("warmup did no work: %+v", warmup)
	}
	if len(warmup.Stages) == 0 || warmup.Stages["process"].Count == 0 {
		t.Fatalf("warmup stage window missing: %+v", warmup.Stages)
	}
	if warmup.Model == nil || warmup.Model.DemandUS <= 0 || warmup.Model.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("warmup model row missing: %+v", warmup.Model)
	}

	if surge.Translated == 0 || surge.PeakConns != 4 || surge.FaultSteps != 2 {
		t.Fatalf("surge row wrong: %+v", surge)
	}
	if len(res.Faults) != 2 {
		t.Fatalf("fault log has %d events, want 2: %+v", len(res.Faults), res.Faults)
	}
	if res.Faults[0].Err != "" || res.Faults[0].State == nil || !res.Faults[0].State.Active {
		t.Fatalf("fault storm not acknowledged: %+v", res.Faults[0])
	}
	if res.Faults[1].State == nil || res.Faults[1].State.Active {
		t.Fatalf("fault clear not acknowledged: %+v", res.Faults[1])
	}

	// The slow-loris contract: the gateway's idle deadline reaped held
	// connections (trickle 300ms > idle 120ms), yet the background
	// senders kept completing — holds shed without starving the pool.
	if siege.LorisHeld == 0 {
		t.Fatalf("siege held no connections: %+v", siege)
	}
	if siege.GwIdleTimeouts == 0 {
		t.Fatalf("gateway reaped no loris conns (idle_timeouts delta 0): %+v", siege)
	}
	if siege.OK == 0 {
		t.Fatalf("background senders starved during siege: %+v", siege)
	}

	// Conservation (see gateway.Counts): in a phase without slow-loris
	// holds, every request the gateway answered is a response a sender
	// counted. No request here is malformed, so the refusal term is zero:
	// a refusal is answered, and the client would hold it as an HTTP error.
	for _, p := range []*PhaseReport{warmup, surge} {
		if p.Sent != p.GwMessages+p.GwShed || p.HTTPErrors != 0 {
			t.Errorf("phase %s: client sent %d (%d HTTP errors), gateway answered %d messages + %d shed",
				p.Name, p.Sent, p.HTTPErrors, p.GwMessages, p.GwShed)
		}
	}

	if res.Samples == 0 {
		t.Fatal("campaign recorded no timeline samples")
	}

	// Artifacts: the CSV parses through the stock session reader despite
	// the leading phase column, and the JSONL carries every boundary.
	cf, err := os.Open(filepath.Join(outDir, "session.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := session.ReadCSV(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("session.csv has no rows")
	}
	var sawLoad bool
	for _, row := range rows {
		if row.Messages > 0 {
			sawLoad = true
		}
	}
	if !sawLoad {
		t.Fatalf("no CSV sample recorded load: %d rows", len(rows))
	}

	jf, err := os.Open(filepath.Join(outDir, "session.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	starts := map[string]bool{}
	sc := bufio.NewScanner(jf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"type":"phase-start"`) {
			for _, p := range spec.Phases {
				if strings.Contains(line, `"phase":"`+p.Name+`"`) {
					starts[p.Name] = true
				}
			}
		}
	}
	if len(starts) != 3 {
		t.Fatalf("JSONL missing phase boundaries: %v", starts)
	}

	// The formatted report renders a row per phase plus the fault log.
	text := FormatReport(res)
	for _, want := range []string{"warmup", "surge", "siege", "fault log", "loris"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}
