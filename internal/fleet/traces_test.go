package fleet

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// TestFleetTracePlane is the cross-node assembly acceptance path: an
// attach-mode fleet over an in-process tracing gateway and backend, the
// sweep originating a trace on every request. The scrape loop must join
// the client, gateway, and backend spans by trace ID into assembled
// cross-node traces, and the traces.jsonl artifact must round-trip
// through the dtrace reader. Runs under -race in CI.
func TestFleetTracePlane(t *testing.T) {
	t.Setenv(gateway.ForceRuntimeOnlyEnv, "1")

	order, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{
		Name:      "order",
		TraceNode: "backend/b-order",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer order.Close()

	srv, err := gateway.New(gateway.Config{
		UseCase:        workload.FR,
		Trace:          true,
		TraceNode:      "gateway/gw0",
		TraceKeepEvery: 1, // keep every trace: assembly assertions are deterministic
		Upstream:       upstream.Config{Order: order.Addr().String()},
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
		TraceClientEvery: 1,
		Nodes: []NodeConfig{
			{Role: roleBackend, ID: "b-order", Addr: order.Addr().String(), Endpoint: "order", Attach: true},
			{Role: roleGateway, ID: "gw0", Addr: srv.Addr().String(), Attach: true},
		},
		Sweep: SweepConfig{Conns: []int{2}, Messages: 100},
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

	if err := co.RunSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := co.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
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
	// all three fleet vantage points, joined purely by trace ID.
	want := "backend/b-order,gateway/gw0,load/client"
	full := 0
	for _, at := range asm {
		if strings.Join(at.Nodes, ",") == want {
			full++
			if len(at.Roots) != 1 {
				t.Fatalf("trace %v: %d roots, want 1 (the client span)", at.TraceID, len(at.Roots))
			}
			root := at.Spans[at.Roots[0]]
			if root.Node != "load/client" {
				t.Fatalf("trace %v root on %q, want load/client", at.TraceID, root.Node)
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

// TestFleetTraceConfigDefaults checks the trace plane's knob defaults.
func TestFleetTraceConfigDefaults(t *testing.T) {
	cfg := Config{Trace: true, Nodes: []NodeConfig{{Role: "gateway", Addr: "x:1"}}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.TraceClientEvery != 16 {
		t.Fatalf("TraceClientEvery=%d, want default 16", cfg.TraceClientEvery)
	}
	off := Config{Nodes: []NodeConfig{{Role: "gateway", Addr: "x:1"}}}
	if err := off.Validate(); err != nil {
		t.Fatal(err)
	}
	if off.Trace || off.TraceClientEvery != 0 {
		t.Fatalf("trace plane on by default: %+v", off)
	}
	bad := Config{TraceClientEvery: -1, Nodes: []NodeConfig{{Role: "gateway", Addr: "x:1"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative trace_client_every validated")
	}
}
