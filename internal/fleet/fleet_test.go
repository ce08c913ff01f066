package fleet

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/session"
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

// End-to-end attach-mode campaign on loopback: a real gateway (with a
// live sampling session) forwarding to two real backends, all running
// in-process, joined by the coordinator purely through their HTTP stats
// surfaces — then a two-phase campaign, one constant phase per
// connection count, and every artifact checked on disk.
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
			SampleIntervalMS: 50,
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
	report, err := co.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Every node contributed to the merged session.
	wantNodes := []string{"backend/b-error", "backend/b-order", "gateway/gw0"}
	if got := co.Merger().Nodes(); strings.Join(got, ",") != strings.Join(wantNodes, ",") {
		t.Fatalf("session nodes %v, want %v", got, wantNodes)
	}

	// The on-disk JSONL covers the same session.
	back, err := readJSONL(filepath.Join(outDir, jsonlName))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != co.Merger().Len() {
		t.Fatalf("jsonl has %d samples, merger has %d", len(back), co.Merger().Len())
	}
	seen := map[string]bool{}
	for _, ns := range back {
		seen[ns.Node] = true
	}
	for _, n := range wantNodes {
		if !seen[n] {
			t.Fatalf("jsonl missing node %s", n)
		}
	}

	// The merged CSV parses with the stock session reader.
	f, err := os.Open(filepath.Join(outDir, mergedCSVName))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := session.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatalf("merged csv: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("merged csv is empty")
	}

	// Per-node CSVs exist for all three nodes.
	for _, n := range wantNodes {
		p := filepath.Join(outDir, "session-"+sanitize(n)+".csv")
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("per-node csv %s missing or empty (err=%v)", p, err)
		}
	}

	// The fleet report carries both phases' per-node windows and the
	// fleet total; gateway throughput reached the client.
	for _, want := range []string{"phase", "gateway/gw0", "backend/b-order", "fleet-total(gateways)", "\nc1 ", "\nc2 "} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	if len(co.windows) != 2 {
		t.Fatalf("%d phase windows, want 2", len(co.windows))
	}
	for _, p := range co.CampaignResult().Phases {
		if p.OK == 0 {
			t.Fatalf("phase %s: no successful messages: %+v", p.Name, p)
		}
	}
	if st, err := os.Stat(filepath.Join(outDir, reportName)); err != nil || st.Size() == 0 {
		t.Fatalf("report file missing or empty (err=%v)", err)
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
			Name:             "fleet-e2e",
			SampleIntervalMS: 50,
			TimeoutMS:        3000,
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
	if _, err := co.Finish(); err != nil {
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

	// Artifacts: campaign report + result beside the fleet session, and
	// the runner's phase-tagged session under the campaign subdir.
	for _, name := range []string{campaignReportName, campaignResultName,
		filepath.Join(campaignDirName, "session.csv"), filepath.Join(campaignDirName, "session.jsonl")} {
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
	// The fleet's own cross-node session ran alongside the campaign.
	if co.Merger().Len() == 0 {
		t.Fatal("fleet session recorded no samples during the campaign")
	}
}
