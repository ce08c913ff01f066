package fleet

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// TestFleetTracePlane is the cross-node assembly acceptance path: an
// attach-mode fleet over an in-process tracing gateway and backend, the
// campaign originating a trace on every request, in whatever counters
// mode the host grants and in the forced runtime-only mode, and on every
// 4th request with the gateway's defaults. The trace pulls must join the
// client, gateway, and backend spans by trace ID into assembled
// cross-node traces with intact parent links — every client-sampled
// request whole, and no backend span outside them — the traces.jsonl
// artifact must round-trip through the dtrace reader, and Finish must
// write the critical-path report. Runs under -race in CI.
func TestFleetTracePlane(t *testing.T) {
	for _, tc := range []struct {
		name  string
		force bool // counters forced to runtime-only
		every int  // the campaign's trace_every
	}{
		{"host-mode", false, 1},
		{"forced-runtime-only", true, 1},
		{"client-every-4", false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.force {
				t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")
			}
			testFleetTracePlane(t, tc.every)
		})
	}
}

func testFleetTracePlane(t *testing.T, every int) {
	order, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{
		Name:      "order",
		TraceNode: "backend/b0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer order.Close()

	srv, err := gateway.New(gateway.Config{
		UseCase:   workload.FR,
		Counters:  true,
		Trace:     true,
		TraceNode: "gateway/gw0",
		Upstream:  upstream.Config{Order: order.Addr().String()},
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
		Trace:            true,
		Nodes: []NodeConfig{
			{Role: roleBackend, ID: "b0", Addr: order.Addr().String(), Endpoint: "order", Attach: true},
			{Role: roleGateway, ID: "gw0", Addr: srv.Addr().String(), Attach: true},
		},
		Campaign: &campaign.Spec{TraceEvery: every, Phases: []campaign.Phase{{DurationMS: 100, Conns: 2}}},
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

	// Each node serves /traces under its fleet name.
	var backendKept uint64
	for addr, want := range map[string]string{srv.Addr().String(): "gateway/gw0", order.Addr().String(): "backend/b0"} {
		var tr dtrace.TracesResponse
		if err := gateway.GetJSON(addr, "/traces", 5*time.Second, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Node != want {
			t.Fatalf("/traces at %s: node %q, want %q", addr, tr.Node, want)
		}
		if want == "backend/b0" {
			backendKept = tr.Tail.Kept
		}
	}

	store := co.Traces()
	if store == nil || store.Len() == 0 {
		t.Fatal("trace store empty")
	}
	asm := store.Assemble()
	if len(asm) == 0 {
		t.Fatal("no assembled traces")
	}
	// Every request was traced end to end: at least one trace must span
	// all three fleet vantage points, joined purely by trace ID, with the
	// client span as its one root parenting the gateway root, and the
	// gateway's stage and forward spans and the backend's serve span.
	want := "backend/b0,gateway/gw0,load/client"
	full := 0
	for _, at := range asm {
		if strings.Join(at.Nodes, ",") != want {
			continue
		}
		full++
		if len(at.Roots) != 1 {
			t.Fatalf("trace %v: %d roots, want 1 (the client span)", at.TraceID, len(at.Roots))
		}
		root := at.Spans[at.Roots[0]]
		if root.Node != "load/client" {
			t.Fatalf("trace %v root on %q, want load/client", at.TraceID, root.Node)
		}
		names := map[string]bool{}
		byID := map[dtrace.ID]dtrace.Span{}
		for _, sp := range at.Spans {
			names[sp.Name] = true
			byID[sp.SpanID] = sp
		}
		for _, name := range []string{"request", "gateway", "forward", "serve", "read", "parse", "process", "write"} {
			if !names[name] {
				t.Fatalf("trace %v lacks a %q span: %v", at.TraceID, name, names)
			}
		}
		for _, sp := range at.Spans {
			switch sp.Name {
			case "serve":
				if byID[sp.ParentID].Name != "forward" {
					t.Fatalf("trace %v: serve under %q, want forward", at.TraceID, byID[sp.ParentID].Name)
				}
			case "gateway":
				if byID[sp.ParentID].Name != "request" {
					t.Fatalf("trace %v: gateway root under %q, want the client's request", at.TraceID, byID[sp.ParentID].Name)
				}
				if sp.UseCase != "FR" || sp.Status != 200 {
					t.Fatalf("trace %v: gateway root usecase %q status %d, want FR 200", at.TraceID, sp.UseCase, sp.Status)
				}
			}
		}
	}
	if full == 0 {
		nodes := map[string]bool{}
		for _, at := range asm {
			nodes[strings.Join(at.Nodes, ",")] = true
		}
		t.Fatalf("no trace spans all three nodes (%s); saw node sets %v", want, nodes)
	}

	// The on-disk artifact holds every span the store collected and
	// reads back through the stock dtrace JSONL reader.
	f, err := os.Open(filepath.Join(outDir, tracesJSONLName))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := dtrace.ReadSpansJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != store.Len() {
		t.Fatalf("traces.jsonl has %d spans, store has %d", len(spans), store.Len())
	}
	back := dtrace.Assemble(spans)
	if len(back) != len(asm) {
		t.Fatalf("jsonl assembles to %d traces, store to %d", len(back), len(asm))
	}

	// Finish rendered the critical-path report beside it, over every
	// trace the store assembled.
	report, err := os.ReadFile(filepath.Join(outDir, traceReportName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), fmt.Sprintf("assembled traces: %d\n", len(asm))) {
		t.Fatalf("trace report does not assemble the store's %d traces:\n%s", len(asm), report)
	}
	if m := regexp.MustCompile(`cross-node traces: ([0-9]+)/`).FindStringSubmatch(string(report)); m == nil || m[1] == "0" {
		t.Fatalf("trace report names no cross-node trace:\n%s", report)
	}

	// The client's decision is the only one: every sampled request that
	// succeeded assembled whole, no trace is the backend's alone, and the
	// backend kept exactly the sampled requests. Checked where 1 in 4 is
	// sampled: sampling every request at this rate outruns the 1024-trace
	// rings between pulls and each sender's cap on its client spans.
	if every == 1 {
		return
	}
	var sampled uint64
	for _, at := range asm {
		var client *dtrace.Span
		var gw, serve bool
		for i, sp := range at.Spans {
			switch {
			case sp.Node == "load/client":
				client = &at.Spans[i]
			case sp.Node == "gateway/gw0":
				gw = true
			case sp.Node == "backend/b0" && sp.Name == "serve":
				serve = true
			}
		}
		if client != nil {
			sampled++
		}
		if client == nil && !gw {
			t.Fatalf("trace %v is backend-only: %v", at.TraceID, at.Nodes)
		}
		if client != nil && client.Status == 200 && (!gw || !serve) {
			t.Fatalf("sampled trace %v (status 200) lacks its gateway or serve span: %v", at.TraceID, at.Nodes)
		}
	}
	if backendKept != sampled {
		t.Fatalf("backend kept %d traces, the client sampled %d", backendKept, sampled)
	}
}

// TestTraceStoreDedup feeds the same spans twice: the second pass adds
// nothing and the sink sees each span exactly once.
func TestTraceStoreDedup(t *testing.T) {
	var sunk []dtrace.Span
	ts := newTraceStore(func(sp dtrace.Span) error {
		sunk = append(sunk, sp)
		return nil
	})
	spans := []dtrace.Span{
		{TraceID: 1, SpanID: 10, Node: "gateway/gw0", Name: "gateway"},
		{TraceID: 1, SpanID: 11, ParentID: 10, Node: "gateway/gw0", Name: "forward"},
		{TraceID: 2, SpanID: 20, Node: "backend/b0", Name: "serve"},
	}
	if added := ts.AddSpans(spans); added != 3 {
		t.Fatalf("first add: %d, want 3", added)
	}
	if added := ts.AddSpans(spans); added != 0 {
		t.Fatalf("re-add: %d, want 0", added)
	}
	if ts.Len() != 3 || len(sunk) != 3 {
		t.Fatalf("len=%d sunk=%d, want 3/3", ts.Len(), len(sunk))
	}
	if err := ts.SinkErr(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetTraceConfigDefaults checks the trace plane's knob defaults:
// with the plane on, a campaign that names no trace_every originates one
// trace per 16 requests, one that names it keeps it, and the plane is off
// by default. The cadence is the campaign's alone (TestParseConfigIsStrict
// refuses a fleet-level trace_client_every), and the campaign spec
// refuses a negative trace_every.
func TestFleetTraceConfigDefaults(t *testing.T) {
	gw := []NodeConfig{{Role: "gateway", Addr: "x:1"}}
	for _, tc := range []struct {
		trace       bool
		every, want int
	}{{true, 0, 16}, {true, 4, 4}, {false, 0, 0}} {
		cfg := Config{Trace: tc.trace, Nodes: gw, Campaign: &campaign.Spec{TraceEvery: tc.every}}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := cfg.Campaign.TraceEvery; got != tc.want {
			t.Errorf("trace %v, trace_every %d: campaign trace_every %d, want %d", tc.trace, tc.every, got, tc.want)
		}
	}
	off := Config{Nodes: gw}
	if err := off.Validate(); err != nil {
		t.Fatal(err)
	}
	if off.Trace {
		t.Fatalf("trace plane on by default: %+v", off)
	}
	bad := campaign.Spec{TraceEvery: -1, Phases: []campaign.Phase{{DurationMS: 1, Conns: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative trace_every validated")
	}
}
