package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// TestFleetTracePlane is the cross-node assembly acceptance path: an
// attach-mode topology over an in-process tracing gateway and backend,
// the campaign originating a trace on every request, in whatever
// counters mode the host grants and in the forced runtime-only mode, and
// on every 4th request with the gateway's defaults. The trace pulls must
// join the client, gateway, and backend spans by trace ID into assembled
// cross-node traces with intact parent links — every client-sampled
// request whole, and no backend span outside them — traces.jsonl must
// hold each span once and read back through the dtrace reader, and the
// run must end by writing the critical-path report over those spans.
// Runs under -race in CI.
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
	spec := &Spec{
		SampleIntervalMS: 20,
		TraceEvery:       every,
		Nodes: []NodeSpec{
			{Kind: KindAttach, Role: roleBackend, ID: "b0", Addr: order.Addr().String(), Endpoint: "order"},
			{Kind: KindAttach, Role: RoleGateway, ID: "gw0", Addr: srv.Addr().String()},
		},
		Phases: []Phase{{DurationMS: 100, Conns: 2}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, Options{Out: outDir, Logf: t.Logf}); err != nil {
		t.Fatal(err)
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

	// traces.jsonl holds every span the pulls collected, each once, and
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
	if len(spans) == 0 {
		t.Fatal("traces.jsonl empty")
	}
	ids := map[[2]dtrace.ID]bool{}
	for _, sp := range spans {
		key := [2]dtrace.ID{sp.TraceID, sp.SpanID}
		if ids[key] {
			t.Fatalf("span %v of trace %v twice in traces.jsonl", sp.SpanID, sp.TraceID)
		}
		ids[key] = true
	}
	asm := dtrace.Assemble(spans)
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

	// The run rendered the critical-path report beside it, over every
	// trace the spans assemble to.
	report, err := os.ReadFile(filepath.Join(outDir, traceReportName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), fmt.Sprintf("assembled traces: %d\n", len(asm))) {
		t.Fatalf("trace report does not assemble traces.jsonl's %d traces:\n%s", len(asm), report)
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
	if added := ts.add(spans); added != 3 {
		t.Fatalf("first add: %d, want 3", added)
	}
	if added := ts.add(spans); added != 0 {
		t.Fatalf("re-add: %d, want 0", added)
	}
	if len(ts.spans) != 3 || len(sunk) != 3 {
		t.Fatalf("len=%d sunk=%d, want 3/3", len(ts.spans), len(sunk))
	}
	if ts.sinkErr != nil {
		t.Fatal(ts.sinkErr)
	}
}

// TestTraceEveryDefaults: the trace plane is off unless the spec names a
// cadence. Validate keeps a topology spec's trace_every as written — 0
// (off) when absent, 4 when it says 4 — fills no default for it, and
// refuses a negative one.
func TestTraceEveryDefaults(t *testing.T) {
	gw := []NodeSpec{{Kind: "attach", Role: "gateway", Addr: "x:1"}}
	for _, every := range []int{0, 4} {
		s := Spec{Nodes: gw, TraceEvery: every}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.TraceEvery != every {
			t.Errorf("trace_every %d: validated to %d", every, s.TraceEvery)
		}
	}
	bad := Spec{Nodes: gw, TraceEvery: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative trace_every validated")
	}
}
