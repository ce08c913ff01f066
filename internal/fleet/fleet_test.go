package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/upstream"
	"repro/internal/workload"
)

func TestConfigValidateDefaults(t *testing.T) {
	cfg := Config{Nodes: []NodeConfig{
		{Role: "backend", Addr: "127.0.0.1:9081"},
		{Role: "gateway", Addr: "127.0.0.1:8080"},
	}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.OutDir != "fleet-out" || cfg.ScrapeIntervalMS != 200 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Nodes[0].Endpoint != "order" || cfg.Nodes[0].ID != "backend0" {
		t.Fatalf("node defaults not applied: %+v", cfg.Nodes[0])
	}

	for _, bad := range []Config{
		{},
		{Nodes: []NodeConfig{{Role: "backend", Addr: "x:1"}}},                                                    // no gateway
		{Nodes: []NodeConfig{{Role: "gateway"}}},                                                                 // no addr
		{Nodes: []NodeConfig{{Role: "widget", Addr: "x:1"}}},                                                     // bad role
		{Nodes: []NodeConfig{{Role: "backend", Addr: "x:1", Endpoint: "cache"}, {Role: "gateway", Addr: "x:2"}}}, // bad endpoint
		{Nodes: []NodeConfig{{Role: "gateway", Addr: "x:1"}, {Role: "load"}}},                                    // the campaign is the load
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v validated, want error", bad)
		}
	}

	// The embedded campaign spec is only checked at RunCampaign time
	// (after backend injection), so even a deliberately broken one
	// passes here.
	withCampaign := Config{
		Nodes:    []NodeConfig{{Role: "gateway", Addr: "x:1"}},
		Campaign: &campaign.Spec{Phases: []campaign.Phase{{Shape: "sawtooth"}}},
	}
	if err := withCampaign.Validate(); err != nil {
		t.Fatalf("campaign-only config rejected: %v", err)
	}

	// A campaign sampling period would be ignored — the fleet records at
	// scrape_interval_ms — so it is refused, naming the field to set.
	sampled := Config{
		Nodes:    []NodeConfig{{Role: "gateway", Addr: "x:1"}},
		Campaign: &campaign.Spec{SampleIntervalMS: 50},
	}
	if err := sampled.Validate(); err == nil || !strings.Contains(err.Error(), "scrape_interval_ms") {
		t.Fatalf("campaign sample_interval_ms: err = %v, want a refusal naming scrape_interval_ms", err)
	}
}

// readJSONL loads a recorder's session.jsonl back: the sample rows, and
// the phase events as rows of their own type.
func readJSONL(path string) ([]campaign.Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []campaign.Row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		var row campaign.Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, row)
	}
	return out, sc.Err()
}

// sampleRows keeps the sample rows of a session.
func sampleRows(t *testing.T, path string) []campaign.Row {
	t.Helper()
	all, err := readJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []campaign.Row
	for _, r := range all {
		if r.Type == "sample" {
			rows = append(rows, r)
		}
	}
	return rows
}

func TestConfigExpandReplicas(t *testing.T) {
	cfg := Config{Nodes: []NodeConfig{
		{Role: "backend", ID: "be", Addr: "127.0.0.1:9081", Count: 3},
		{Role: "gateway", Addr: "127.0.0.1:8080"},
	}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes, err := cfg.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("expanded to %d nodes, want 4", len(nodes))
	}
	for i, want := range []struct{ id, addr string }{
		{"be-0", "127.0.0.1:9081"}, {"be-1", "127.0.0.1:9082"}, {"be-2", "127.0.0.1:9083"},
	} {
		if nodes[i].ID != want.id || nodes[i].Addr != want.addr {
			t.Fatalf("replica %d = %s@%s, want %s@%s", i, nodes[i].ID, nodes[i].Addr, want.id, want.addr)
		}
	}
}

// End-to-end attach-mode campaign on loopback: a real counters-enabled
// gateway forwarding to two real backends, all running in-process,
// joined by the coordinator purely through their HTTP stats surfaces —
// then a two-phase campaign, one constant phase per connection count,
// and every artifact checked on disk.
func TestFleetAttachCampaign(t *testing.T) {
	t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")

	order, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer order.Close()
	errBack, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{Name: "error"})
	if err != nil {
		t.Fatal(err)
	}
	defer errBack.Close()

	srv, err := gateway.New(gateway.Config{
		UseCase:  workload.FR,
		Counters: true,
		Upstream: upstream.Config{Order: order.Addr().String(), Error: errBack.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	outDir := t.TempDir()
	cfg := &Config{
		OutDir:           outDir,
		ScrapeIntervalMS: 20,
		ReadyTimeoutMS:   5000,
		Nodes: []NodeConfig{
			{Role: roleBackend, ID: "b-order", Addr: order.Addr().String(), Endpoint: "order", Attach: true},
			{Role: roleBackend, ID: "b-error", Addr: errBack.Addr().String(), Endpoint: "error", Attach: true},
			{Role: roleGateway, ID: "gw0", Addr: srv.Addr().String(), Attach: true},
		},
		Campaign: &campaign.Spec{
			Phases: []campaign.Phase{
				{Name: "c1", DurationMS: 200, Conns: 1},
				{Name: "c2", DurationMS: 200, Conns: 2},
			},
		},
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co.Logf = t.Logf
	if err := co.Start(); err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()

	if err := co.RunCampaign(); err != nil {
		t.Fatal(err)
	}
	if err := co.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := co.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// One recording: out_dir holds one session.jsonl beside the
	// campaign's report and result (attached nodes leave no logs).
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, ","), "campaign-report.txt,campaign-result.json,session.jsonl"; got != want {
		t.Fatalf("out_dir holds %s, want %s", got, want)
	}

	// Every node contributed to the session.
	wantNodes := []string{"backend/b-error", "backend/b-order", "gateway/gw0"}
	rows := sampleRows(t, filepath.Join(outDir, "session.jsonl"))
	seen := map[string]bool{}
	for _, row := range rows {
		seen[row.Node] = true
	}
	for _, n := range wantNodes {
		if !seen[n] {
			t.Fatalf("jsonl missing node %s", n)
		}
	}

	// The campaign report carries both phases' per-node windows and the
	// fleet total; gateway throughput reached the client.
	report, err := os.ReadFile(filepath.Join(outDir, campaign.ReportFile))
	if err != nil || len(report) == 0 {
		t.Fatalf("report file missing or empty (err=%v)", err)
	}
	for _, want := range []string{"phase", "gateway/gw0", "backend/b-order", "fleet-total(gateways)", "\nc1 ", "\nc2 "} {
		if !strings.Contains(string(report), want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	for _, p := range co.CampaignResult().Phases {
		if p.OK == 0 {
			t.Fatalf("phase %s: no successful messages: %+v", p.Name, p)
		}
		if len(p.Nodes) != 3 {
			t.Fatalf("phase %s: %d node windows, want 3", p.Name, len(p.Nodes))
		}
	}
}

// TestFleetScenarioCampaign runs a topology whose config carries a
// shaped campaign with a fault storm: the coordinator injects the
// attached gateway and backend addresses into the spec, the fault step
// lands on the live backend's /fault endpoint, and the per-phase report
// artifacts land next to the fleet session.
func TestFleetScenarioCampaign(t *testing.T) {
	t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")

	order, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer order.Close()

	srv, err := gateway.New(gateway.Config{
		UseCase:  workload.FR,
		Trace:    true,
		Upstream: upstream.Config{Order: order.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	one := 1.0
	outDir := t.TempDir()
	cfg := &Config{
		OutDir:           outDir,
		ScrapeIntervalMS: 20,
		Nodes: []NodeConfig{
			{Role: roleBackend, ID: "b-order", Addr: order.Addr().String(), Endpoint: "order", Attach: true},
			{Role: roleGateway, ID: "gw0", Addr: srv.Addr().String(), Attach: true},
		},
		Campaign: &campaign.Spec{
			Name:      "fleet-e2e",
			TimeoutMS: 3000,
			Phases: []campaign.Phase{
				{Name: "steady", Shape: campaign.ShapeConstant, DurationMS: 300, Conns: 2},
				{Name: "storm", Shape: campaign.ShapeRamp, DurationMS: 400, Conns: 1, ConnsTo: 3,
					Faults: []campaign.FaultStep{
						{AtMS: 50, Backend: 0, Fault: upstream.FaultSpec{ErrorRate: &one}},
						{AtMS: 250, Backend: 0, Fault: upstream.FaultSpec{Clear: true}},
					}},
			},
		},
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co.Logf = t.Logf
	if err := co.Start(); err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()

	if err := co.RunCampaign(); err != nil {
		t.Fatal(err)
	}
	if err := co.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := co.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	res := co.CampaignResult()
	if res == nil || len(res.Phases) != 2 {
		t.Fatalf("campaign result missing or wrong: %+v", res)
	}
	// The spec's backends list was filled from the topology, so the
	// fault storm reached the live backend.
	if len(cfg.Campaign.Backends) != 1 || cfg.Campaign.Backends[0] != order.Addr().String() {
		t.Fatalf("backends not injected from topology: %v", cfg.Campaign.Backends)
	}
	if len(res.Faults) != 2 || res.Faults[0].Err != "" || res.Faults[0].State == nil || !res.Faults[0].State.Active {
		t.Fatalf("fault storm not acknowledged: %+v", res.Faults)
	}
	if res.Phases[0].OK == 0 {
		t.Fatalf("steady phase did no work: %+v", res.Phases[0])
	}

	// Artifacts: campaign report + result beside the fleet's one session.
	for _, name := range []string{campaign.ReportFile, campaign.ResultFile, "session.jsonl"} {
		p := filepath.Join(outDir, name)
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("campaign artifact %s missing or empty (err=%v)", p, err)
		}
	}
	report := co.CampaignReport()
	for _, want := range []string{"steady", "storm", "fault log"} {
		if !strings.Contains(report, want) {
			t.Fatalf("campaign report missing %q:\n%s", want, report)
		}
	}
	// The fleet's cross-node recording ran alongside the campaign, and the
	// campaign tagged its rows.
	phases := map[string]bool{}
	for _, row := range sampleRows(t, filepath.Join(outDir, "session.jsonl")) {
		phases[row.Phase] = true
	}
	if !phases["steady"] || !phases["storm"] {
		t.Fatalf("fleet session rows tagged %v, want both phases", phases)
	}
}
