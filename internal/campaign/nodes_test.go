package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/gateway"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// TestNodeSpecDefaults: Validate fills every node default, accepts a
// topology without phases (a passive recording) and refuses impossible
// topologies. The whole spec is one document, so a broken phase is
// refused here too, before any node could start.
func TestNodeSpecDefaults(t *testing.T) {
	s := Spec{SampleIntervalMS: 50, Nodes: []NodeSpec{
		{Role: "backend", Addr: "127.0.0.1:9081"},
		{Role: "gateway", Addr: "127.0.0.1:8080"},
		{Kind: KindInproc, Role: "gateway"},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.SampleIntervalMS != 50 {
		t.Fatalf("sample_interval_ms %d, want the spec's 50 kept", s.SampleIntervalMS)
	}
	if n := s.Nodes[0]; n.Kind != KindLaunch || n.Endpoint != "order" || n.ID != "backend0" {
		t.Fatalf("node defaults not applied: %+v", n)
	}
	if n := s.Nodes[2]; n.Addr != "127.0.0.1:0" || n.ID != "gateway2" {
		t.Fatalf("inproc node defaults not applied: %+v", n)
	}
	if def := (Spec{Nodes: []NodeSpec{{Role: "gateway", Addr: "x:1"}}}); def.Validate() != nil || def.SampleIntervalMS != 250 {
		t.Fatalf("sample_interval_ms default %d, want 250", def.SampleIntervalMS)
	}

	gw := NodeSpec{Role: "gateway", Addr: "x:1"}
	for _, bad := range [][]NodeSpec{
		{{Role: "backend", Addr: "x:1"}},                                              // no gateway
		{{Role: "gateway"}},                                                           // launch without addr
		{{Kind: KindAttach, Role: "gateway"}},                                         // attach without addr
		{{Kind: "ssh", Role: "gateway", Addr: "x:1"}},                                 // unknown kind
		{{Role: "widget", Addr: "x:1"}},                                               // bad role
		{{Role: "backend", Addr: "x:1", Endpoint: "cache"}, gw},                       // bad endpoint
		{gw, {Role: "load"}},                                                          // the campaign is the load
		{{Role: "backend", Addr: "x:1", Count: -1}, gw},                               // negative count
		{{Role: "backend", Addr: "x", Count: 2}, gw},                                  // replicas need host:port
		{{Kind: KindAttach, Role: "gateway", Addr: "x:1", Flags: []string{"-trace"}}}, // flags on an attached node
		{{Kind: KindAttach, Role: "gateway", Addr: "x:1", IdleTimeoutMS: 100}},        // idle timeout it cannot set
		{{Kind: KindInproc, Role: "backend", IdleTimeoutMS: 100}, gw},                 // idle timeout on a backend
		{{Kind: KindInproc, Role: "gateway", IdleTimeoutMS: -1}},                      // negative idle timeout
	} {
		s := Spec{Nodes: bad}
		if err := s.Validate(); err == nil {
			t.Errorf("topology %+v validated, want error", bad)
		}
	}

	broken := Spec{Nodes: []NodeSpec{gw}, Phases: []Phase{{Shape: "sawtooth", DurationMS: 1, Conns: 1}}}
	if err := broken.Validate(); err == nil || !strings.Contains(err.Error(), "sawtooth") {
		t.Fatalf("topology with a broken phase: err = %v, want the unknown shape named", err)
	}
	if err := (&Spec{}).Validate(); err == nil {
		t.Fatal("a spec with neither nodes nor phases validated")
	}
}

// TestNodesExpandReplicas: a counted entry expands into replicas on
// consecutive ports (port 0 stays 0) named <id>-<i>, and fault steps may
// index every replica.
func TestNodesExpandReplicas(t *testing.T) {
	s := Spec{
		Nodes: []NodeSpec{
			{Role: "backend", ID: "be", Addr: "127.0.0.1:9081", Count: 3},
			{Kind: KindInproc, Role: "gateway", ID: "gw", Count: 2},
		},
		Phases: []Phase{{DurationMS: 10, Conns: 1, Faults: []FaultStep{{Backend: 2}}}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes := expandNodes(s.Nodes)
	if len(nodes) != 5 {
		t.Fatalf("expanded to %d nodes, want 5", len(nodes))
	}
	for i, want := range []struct{ key, addr string }{
		{"backend/be-0", "127.0.0.1:9081"}, {"backend/be-1", "127.0.0.1:9082"}, {"backend/be-2", "127.0.0.1:9083"},
		{"gateway/gw-0", "127.0.0.1:0"}, {"gateway/gw-1", "127.0.0.1:0"},
	} {
		if nodes[i].key != want.key || nodes[i].addr != want.addr {
			t.Fatalf("replica %d = %s@%s, want %s@%s", i, nodes[i].key, nodes[i].addr, want.key, want.addr)
		}
	}
	s.Phases[0].Faults[0].Backend = 3
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "spec has 3 backend nodes") {
		t.Fatalf("fault past the replicas: err = %v, want a refusal counting 3 backends", err)
	}
}

// End-to-end attach-mode campaign on loopback: a real counters-enabled
// gateway forwarding to two real backends, all running in-process,
// joined by the campaign purely through their HTTP stats surfaces —
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
	spec := &Spec{
		SampleIntervalMS: 20,
		Nodes: []NodeSpec{
			{Kind: KindAttach, Role: roleBackend, ID: "b-order", Addr: order.Addr().String(), Endpoint: "order"},
			{Kind: KindAttach, Role: roleBackend, ID: "b-error", Addr: errBack.Addr().String(), Endpoint: "error"},
			{Kind: KindAttach, Role: RoleGateway, ID: "gw0", Addr: srv.Addr().String()},
		},
		Phases: []Phase{
			{Name: "c1", DurationMS: 200, Conns: 1},
			{Name: "c2", DurationMS: 200, Conns: 2},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, Options{Out: outDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	// One recording: out holds one session.jsonl (attached nodes leave
	// no logs, and the campaign's report and result are its caller's).
	if names := artifactNames(t, outDir); names != "session.jsonl" {
		t.Fatalf("out holds %s, want session.jsonl", names)
	}

	// Every node contributed to the session.
	wantNodes := []string{"backend/b-error", "backend/b-order", "gateway/gw0"}
	seen := map[string]bool{}
	for _, row := range readRows(t, filepath.Join(outDir, "session.jsonl")) {
		seen[row.Node] = true
	}
	for _, n := range wantNodes {
		if !seen[n] {
			t.Fatalf("jsonl missing node %s", n)
		}
	}

	// The campaign report carries both phases' per-node windows and the
	// fleet total; gateway throughput reached the client.
	report := formatReport(res)
	for _, want := range []string{"phase", "gateway/gw0", "backend/b-order", "fleet-total(gateways)", "\nc1 ", "\nc2 "} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	for _, p := range res.Phases {
		if p.OK == 0 {
			t.Fatalf("phase %s: no successful messages: %+v", p.Name, p)
		}
		if len(p.Nodes) != 3 {
			t.Fatalf("phase %s: %d node windows, want 3", p.Name, len(p.Nodes))
		}
	}
}

// TestFleetScenarioCampaign runs a topology whose spec carries a shaped
// campaign with a fault storm: the fault steps index the topology's
// backend nodes, so the fault lands on the attached backend's live
// /fault endpoint, and the campaign tags the recording's rows.
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
	spec := &Spec{
		Name:             "fleet-e2e",
		TimeoutMS:        3000,
		SampleIntervalMS: 20,
		Nodes: []NodeSpec{
			{Kind: KindAttach, Role: roleBackend, ID: "b-order", Addr: order.Addr().String(), Endpoint: "order"},
			{Kind: KindAttach, Role: RoleGateway, ID: "gw0", Addr: srv.Addr().String()},
		},
		Phases: []Phase{
			{Name: "steady", Shape: ShapeConstant, DurationMS: 300, Conns: 2},
			{Name: "storm", Shape: ShapeRamp, DurationMS: 400, Conns: 1, ConnsTo: 3,
				Faults: []FaultStep{
					{AtMS: 50, Backend: 0, Fault: upstream.FaultSpec{ErrorRate: &one}},
					{AtMS: 250, Backend: 0, Fault: upstream.FaultSpec{Clear: true}},
				}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, Options{Out: outDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Phases) != 2 {
		t.Fatalf("campaign result wrong: %+v", res)
	}
	// Backend 0 is the topology's backend node, so the fault storm
	// reached the live backend.
	if len(res.Faults) != 2 || res.Faults[0].Backend != order.Addr().String() {
		t.Fatalf("faults not sent to the topology's backend %s: %+v", order.Addr(), res.Faults)
	}
	if res.Faults[0].Err != "" || res.Faults[0].State == nil || !res.Faults[0].State.Active {
		t.Fatalf("fault storm not acknowledged: %+v", res.Faults)
	}
	if res.Phases[0].OK == 0 {
		t.Fatalf("steady phase did no work: %+v", res.Phases[0])
	}

	if st, err := os.Stat(filepath.Join(outDir, "session.jsonl")); err != nil || st.Size() == 0 {
		t.Fatalf("session.jsonl missing or empty (err=%v)", err)
	}
	report := formatReport(res)
	for _, want := range []string{"steady", "storm", "fault log"} {
		if !strings.Contains(report, want) {
			t.Fatalf("campaign report missing %q:\n%s", want, report)
		}
	}
	// The cross-node recording ran alongside the campaign, and the
	// campaign tagged its rows.
	phases := map[string]bool{}
	for _, row := range readRows(t, filepath.Join(outDir, "session.jsonl")) {
		phases[row.Phase] = true
	}
	if !phases["steady"] || !phases["storm"] {
		t.Fatalf("session rows tagged %v, want both phases", phases)
	}
}

// fakeNodeStats scripts a node's /stats: each read advances its clock by
// 1/128 s (exact in binary, so every read's t_ms is distinct); a backend
// answers only the keys aonback publishes.
func fakeNodeStats(backend bool) func() any {
	var mu sync.Mutex
	var uptime float64
	return func() any {
		mu.Lock()
		defer mu.Unlock()
		uptime += 1.0 / 128
		if backend {
			return map[string]any{"uptime_sec": uptime, "messages": 0}
		}
		return gateway.Snapshot{UptimeSec: uptime}
	}
}

// TestScraperAgainstFakeControlPlane walks the trace plane's pull
// against scripted nodes: the /traces 404 memo (a node without tracing
// is asked once), and a 500 that is an error, with its body, every time.
func TestScraperAgainstFakeControlPlane(t *testing.T) {
	plane := startFakePlane(t, fakeNodeStats(false))
	n := &node{key: "gateway/gw0", addr: plane.addr}
	tp := &tracePuller{traces: newTraceStore(nil)}
	for i := 0; i < 5; i++ {
		if err := tp.pull(n); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
	if got := plane.hit("/traces"); got != 1 {
		t.Errorf("/traces asked %d times after a 404, want 1 (memoised)", got)
	}
	if got := plane.hit("/stats"); got != 0 {
		t.Errorf("/stats read %d times by the trace plane, want 0: samples are the recorder's", got)
	}

	broken := startFakePlane(t, fakeNodeStats(false))
	broken.mu.Lock()
	broken.traces = 500
	broken.mu.Unlock()
	bn := &node{key: "gateway/gw1", addr: broken.addr}
	for i := 1; i <= 2; i++ {
		err := tp.pull(bn)
		if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "scripted") {
			t.Fatalf("pull %d of a node whose /traces is broken: err=%v, want the 500 and its body", i, err)
		}
		if got := broken.hit("/traces"); got != i {
			t.Errorf("/traces asked %d times after %d pulls: a 500 must not be memoised", got, i)
		}
	}
}

// TestFleetReadsEachNodeOncePerTick: in a campaign over a topology, the
// one recorder reads every node's /stats once per tick and once per
// phase boundary — the gateway's boundary reads being the campaign's
// own — so beside its readiness probe each read is one row, and the
// gateway has exactly as many rows as the backend.
func TestFleetReadsEachNodeOncePerTick(t *testing.T) {
	gw := startFakePlane(t, fakeNodeStats(false))
	be := startFakePlane(t, fakeNodeStats(true))
	spec := &Spec{
		SampleIntervalMS: 20,
		Nodes: []NodeSpec{
			{Kind: KindAttach, Role: roleBackend, ID: "b0", Addr: be.addr},
			{Kind: KindAttach, Role: RoleGateway, ID: "gw0", Addr: gw.addr},
		},
		Phases: []Phase{
			{Name: "p1", DurationMS: 150, Conns: 1},
			{Name: "p2", DurationMS: 150, Conns: 1},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Out: out, Logf: t.Logf}); err != nil {
		t.Fatal(err)
	}

	rows := map[string]int{}
	for _, row := range readRows(t, filepath.Join(out, "session.jsonl")) {
		rows[row.Node]++
	}
	gwRows, beRows := rows["gateway/gw0"], rows["backend/b0"]
	if beRows <= 4 {
		t.Fatalf("backend has %d rows, want its 4 boundary reads and some ticks", beRows)
	}
	if gwRows != beRows {
		t.Errorf("gateway has %d rows, backend %d: want one read of each per tick and boundary", gwRows, beRows)
	}
	if got := gw.hit("/stats"); got != 1+gwRows {
		t.Errorf("gateway /stats read %d times, want %d: the probe and one per row", got, 1+gwRows)
	}
	if got := be.hit("/stats"); got != 1+beRows {
		t.Errorf("backend /stats read %d times, want %d: the probe and one per row", got, 1+beRows)
	}
}
