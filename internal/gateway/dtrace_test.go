package gateway

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// getTraces issues GET /traces against a gateway or backend address and
// decodes the shared response shape.
func getTraces(t *testing.T, addr, query string) dtrace.TracesResponse {
	t.Helper()
	path := "/traces"
	if query != "" {
		path += "?" + query
	}
	var tr dtrace.TracesResponse
	if err := GetJSON(addr, path, 5*time.Second, &tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTracesLastParam: the gateway and the backend serve /traces through
// one ?last=N parser, so both slice the ring the same way and both
// refuse the same values with a 404 that says why.
func TestTracesLastParam(t *testing.T) {
	order := startBackend(t, upstream.BackendConfig{Name: "order"})
	srv := startServer(t, Config{
		Trace:    true,
		Upstream: upstream.Config{Order: order.Addr().String()},
	})
	if rep := drive(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.FR, TraceEvery: 1}, 1, 5); rep.OK != 5 {
		t.Fatalf("ok=%d of 5 (%+v)", rep.OK, rep)
	}
	waitTraced(t, srv, 5)
	waitBackendKept(t, order.Addr().String(), 5)
	for _, node := range []struct{ name, addr string }{
		{"gateway", srv.Addr().String()},
		{"backend", order.Addr().String()},
	} {
		if all := getTraces(t, node.addr, ""); len(all.Traces) != 5 {
			t.Errorf("%s: %d traces kept, want 5", node.name, len(all.Traces))
		}
		if got := getTraces(t, node.addr, "last=2"); len(got.Traces) != 2 {
			t.Errorf("%s: last=2 returned %d traces", node.name, len(got.Traces))
		}
		for _, bad := range []string{"last=abc", "last=-1"} {
			var tr dtrace.TracesResponse
			err := GetJSON(node.addr, "/traces?"+bad, 5*time.Second, &tr)
			if !IsNotFound(err) || !strings.Contains(err.Error(), "bad last=") {
				t.Errorf("%s: %s: err=%v, want a 404 naming the bad value", node.name, bad, err)
			}
		}
	}
}

// waitTraced blocks until the gateway has offered n finished requests to
// the tail sampler. A request's trace is offered — and its stage spans
// folded into the stage histograms — after the response write, so a
// client that just read its last response can be ahead of
// the server's bookkeeping: every test that reads /traces or the stages
// section right after a response waits here first.
func waitTraced(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		seen := srv.Snapshot().Traces.Tail.Seen
		if seen >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail sampler saw %d finished requests, want %d", seen, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitBackendKept polls a backend's /traces until it has kept n serve
// spans and returns that answer. The backend records a serve span after
// its response write, so the gateway can have relayed the last answer —
// and the client read it — before the span is in the ring.
func waitBackendKept(t *testing.T, addr string, n uint64) dtrace.TracesResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr := getTraces(t, addr, "")
		if tr.Tail.Kept >= n {
			return tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend kept %d serve spans, want %d", tr.Tail.Kept, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDTraceForwardedEndToEnd is the tracing acceptance path: a sender
// set originating a trace on every request drives FR through a tracing
// gateway that forwards to a real order backend, and the three nodes'
// span sets must assemble into one trace per request — client request
// span, adopted gateway stage spans, backend serve span — joined purely
// by trace ID with intact parent links.
func TestDTraceForwardedEndToEnd(t *testing.T) {
	order := startBackend(t, upstream.BackendConfig{Name: "order"})
	srv := startServer(t, Config{
		Trace:    true,
		Upstream: upstream.Config{Order: order.Addr().String()},
	})

	s := NewSenders(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.FR, TraceEvery: 1})
	s.Resize(2)
	waitFor(t, "40 answered requests", func() bool { return srv.Metrics.Messages.Load() >= 40 })
	rep := s.Stop()
	n := rep.Sent
	if n < 40 || rep.OK != n || rep.Forwarded != n {
		t.Fatalf("FR: sent=%d ok=%d forwarded=%d, want >= 40 and all forwarded", n, rep.OK, rep.Forwarded)
	}
	if uint64(len(rep.ClientSpans)) != n {
		t.Fatalf("client spans: got %d, want one per request (%d)", len(rep.ClientSpans), n)
	}
	for _, sp := range rep.ClientSpans {
		if sp.Node != "client" || sp.Name != "request" || sp.TraceID.IsZero() || sp.SpanID.IsZero() {
			t.Fatalf("malformed client span %+v", sp)
		}
	}

	// Gateway side: every request was client-sampled, so every trace was
	// kept.
	waitTraced(t, srv, n)
	gw := getTraces(t, srv.Addr().String(), fmt.Sprintf("last=%d", n))
	if gw.Node != "gateway" {
		t.Fatalf("gateway node=%q", gw.Node)
	}
	if gw.Tail.Seen != n || gw.Tail.Kept != n {
		t.Fatalf("gateway tail seen=%d kept=%d, want %d/%d", gw.Tail.Seen, gw.Tail.Kept, n, n)
	}
	// Backend side: every forwarded request carried the propagated header.
	be := waitBackendKept(t, order.Addr().String(), n)
	if be.Node != "order" {
		t.Fatalf("backend node=%q", be.Node)
	}
	if be.Tail.Kept != n {
		t.Fatalf("backend tail kept=%d, want %d", be.Tail.Kept, n)
	}

	// Pool every span from all three vantage points and assemble.
	var spans []dtrace.Span
	spans = append(spans, rep.ClientSpans...)
	for _, tr := range gw.Traces {
		spans = append(spans, tr.Spans...)
	}
	for _, tr := range be.Traces {
		spans = append(spans, tr.Spans...)
	}
	asm := dtrace.Assemble(spans)
	if uint64(len(asm)) != n {
		t.Fatalf("assembled %d traces, want %d", len(asm), n)
	}

	wantStages := []string{"read", "parse", "process", "forward", "write"}
	for _, at := range asm {
		if got := strings.Join(at.Nodes, ","); got != "client,gateway,order" {
			t.Fatalf("trace %v nodes=%q, want client,gateway,order", at.TraceID, got)
		}
		// Exactly one root: the client request span.
		if len(at.Roots) != 1 {
			t.Fatalf("trace %v has %d roots", at.TraceID, len(at.Roots))
		}
		var client, gwRoot, fwd, serve *dtrace.Span
		byName := map[string]*dtrace.Span{}
		for i := range at.Spans {
			sp := &at.Spans[i]
			switch {
			case sp.Node == "client":
				client = sp
			case sp.Node == "gateway" && sp.Name == "gateway":
				gwRoot = sp
			case sp.Node == "gateway" && sp.Name == "forward":
				fwd = sp
			case sp.Node == "order" && sp.Name == "serve":
				serve = sp
			}
			if sp.Node == "gateway" {
				byName[sp.Name] = sp
			}
		}
		if client == nil || gwRoot == nil || fwd == nil || serve == nil {
			t.Fatalf("trace %v missing a span: client=%v gw=%v fwd=%v serve=%v",
				at.TraceID, client != nil, gwRoot != nil, fwd != nil, serve != nil)
		}
		// Parent links: client → gateway root → forward → backend serve.
		if gwRoot.ParentID != client.SpanID {
			t.Fatalf("gateway root parent %v, want client span %v", gwRoot.ParentID, client.SpanID)
		}
		if fwd.ParentID != gwRoot.SpanID {
			t.Fatalf("forward parent %v, want gateway root %v", fwd.ParentID, gwRoot.SpanID)
		}
		if serve.ParentID != fwd.SpanID {
			t.Fatalf("serve parent %v, want forward span %v", serve.ParentID, fwd.SpanID)
		}
		if serve.TraceID != client.TraceID {
			t.Fatalf("serve trace %v != client trace %v", serve.TraceID, client.TraceID)
		}
		for _, name := range wantStages {
			if byName[name] == nil {
				t.Fatalf("trace %v missing gateway stage %q (have %v)", at.TraceID, name, at.Spans)
			}
		}
		if gwRoot.UseCase != "FR" || gwRoot.Outcome != "forwarded" || gwRoot.Status != 200 {
			t.Fatalf("gateway root annotation %+v", gwRoot)
		}
	}

	// The assembled report renders without error and names all nodes.
	var buf bytes.Buffer
	dtrace.FormatReport(&buf, asm)
	out := buf.String()
	for _, want := range []string{fmt.Sprintf("assembled traces: %d", n), fmt.Sprintf("cross-node traces: %d/%d", n, n), "order", "forward"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// /stats carries the tail summary.
	snap := srv.Snapshot()
	if snap.Traces == nil || snap.Traces.Tail.Kept != n {
		t.Fatalf("stats traces section %+v", snap.Traces)
	}
}

// TestForwardPropagatesOnlySampled pins the propagation half of the one
// sampling decision: a forwarded request the client did not sample
// reaches the backend without X-AON-Trace, so the backend records
// nothing for it, and a sampled one carries the header, so the backend's
// serve span joins the client's trace under the gateway's forward span.
func TestForwardPropagatesOnlySampled(t *testing.T) {
	order := startBackend(t, upstream.BackendConfig{Name: "order"})
	srv := startServer(t, Config{
		Trace:    true,
		Upstream: upstream.Config{Order: order.Addr().String()},
	})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tid := dtrace.NewID()
	// Unsampled first, then sampled, over one client connection: the
	// gateway reuses its one idle upstream connection, and the backend
	// serves a connection in order, so once the sampled request's serve
	// span is kept the unsampled one has been fully served.
	for _, raw := range [][]byte{
		workload.HTTPRequest(0, workload.FR),
		dtrace.InjectHeader(nil, workload.HTTPRequest(1, workload.FR), tid, dtrace.NewID()),
	} {
		if resp, err := cl.Do(raw, 5*time.Second); err != nil || resp.Status != 200 {
			t.Fatalf("resp=%+v err=%v", resp, err)
		}
	}
	be := waitBackendKept(t, order.Addr().String(), 1)
	if order.Requests.Load() != 2 || be.Tail.Seen != 1 || be.Tail.Kept != 1 {
		t.Fatalf("backend served %d, tail %+v, want 2 served and only the sampled one kept", order.Requests.Load(), be.Tail)
	}
	serve := be.Traces[0].Spans[0]
	if serve.TraceID != tid {
		t.Fatalf("backend kept trace %v, want the sampled %v", serve.TraceID, tid)
	}
	waitTraced(t, srv, 2)
	var fwd *dtrace.Span
	for _, tr := range getTraces(t, srv.Addr().String(), "").Traces {
		for i := range tr.Spans {
			if sp := &tr.Spans[i]; sp.TraceID == tid && sp.Name == "forward" {
				fwd = sp
			}
		}
	}
	if fwd == nil || serve.ParentID != fwd.SpanID {
		t.Fatalf("serve span %+v does not parent under the gateway's forward span %+v", serve, fwd)
	}
}

// TestDTraceTailSampling exercises the keep rule end to end: of 64 fast
// requests, the 8 the client sampled (every 8th carries X-AON-Trace)
// survive the tail decision, and of the rest only one slower than the
// 50 ms bound could.
func TestDTraceTailSampling(t *testing.T) {
	srv := startServer(t, Config{Trace: true})
	if rep := drive(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.FR, TraceEvery: 8}, 2, 64); rep.OK != 64 {
		t.Fatalf("ok=%d, want 64", rep.OK)
	}
	waitTraced(t, srv, 64)
	tr := getTraces(t, srv.Addr().String(), "")
	if tr.Tail.Seen != 64 {
		t.Fatalf("tail seen=%d, want 64", tr.Tail.Seen)
	}
	if tr.Tail.KeptSampled != 8 || tr.Tail.KeptErr != 0 || tr.Tail.Kept != tr.Tail.KeptSampled+tr.Tail.KeptSlow {
		t.Fatalf("tail %+v, want kept_sampled 8 and nothing else but slow traces", tr.Tail)
	}
	sampled := 0
	for _, kept := range tr.Traces {
		if root := kept.Spans[0]; !root.ParentID.IsZero() {
			sampled++
		} else if root.DurUS < 50_000 {
			t.Fatalf("unsampled fast trace kept: %+v", root)
		}
	}
	if sampled != 8 {
		t.Fatalf("%d kept traces parent under a client span, want 8", sampled)
	}
	// last=N slicing.
	if got := getTraces(t, srv.Addr().String(), "last=3"); len(got.Traces) != 3 {
		t.Fatalf("last=3 returned %d traces", len(got.Traces))
	}
}

// TestDTraceShedKept drives the shed path with tracing on and no request
// sampled: shed requests must always survive tail sampling (they are
// exactly the requests worth a post-mortem), and the only other keeps are
// requests past the slow bound.
func TestDTraceShedKept(t *testing.T) {
	srv := startServer(t, Config{
		MaxInflight: 2,
		Upstream:    slowUpstream(t, 20*time.Millisecond),
		Trace:       true,
	})

	const conns = 8
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for m := 0; m < 10; m++ {
				if _, err := cl.Do(workload.HTTPRequest(i*10+m, workload.FR), 5*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	shed := srv.Metrics.Shed.Load()
	if shed == 0 {
		t.Fatal("no sheds under saturation — test premise broken")
	}
	waitTraced(t, srv, conns*10)
	tr := getTraces(t, srv.Addr().String(), "")
	if tr.Tail.KeptErr != shed || tr.Tail.KeptSampled != 0 || tr.Tail.Kept != tr.Tail.KeptErr+tr.Tail.KeptSlow {
		t.Fatalf("tail %+v, want kept_err == shed count %d and kept == kept_err + kept_slow", tr.Tail, shed)
	}
	var keptShed uint64
	for _, kept := range tr.Traces {
		switch root := kept.Spans[0]; {
		case root.Outcome == "shed" && root.Status == 503:
			keptShed++
		case root.DurUS < 50_000:
			t.Fatalf("kept trace root %+v is neither shed nor slow", root)
		}
	}
	if keptShed != shed {
		t.Fatalf("%d kept shed traces, want %d", keptShed, shed)
	}
}

// TestDTraceIdleTimeoutKept reaps a mid-request stall and asserts the
// synthetic idle-timeout trace lands in the ring.
func TestDTraceIdleTimeoutKept(t *testing.T) {
	srv := startServer(t, Config{
		IdleTimeout: 100 * time.Millisecond,
		Trace:       true,
	})
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A partial request: headers promised, body never sent.
	if _, err := c.Write([]byte("POST /order HTTP/1.1\r\nContent-Length: 100\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	waitTraced(t, srv, 1)
	if srv.Metrics.IdleTimeouts.Load() != 1 {
		t.Fatalf("idle timeouts = %d, want 1", srv.Metrics.IdleTimeouts.Load())
	}
	tr := getTraces(t, srv.Addr().String(), "")
	if tr.Tail.Kept != 1 || tr.Tail.KeptErr != 1 {
		t.Fatalf("tail %+v, want exactly the idle-timeout trace kept", tr.Tail)
	}
	root := tr.Traces[0].Spans[0]
	if root.Outcome != "idle-timeout" || root.Node != "gateway" {
		t.Fatalf("kept root %+v, want outcome=idle-timeout", root)
	}
}

// TestDTraceDisabled404 checks /traces answers 404 when tracing is off
// and that /stats omits the traces section.
func TestDTraceDisabled404(t *testing.T) {
	srv := startServer(t, Config{})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do([]byte("GET /traces HTTP/1.1\r\nHost: x\r\n\r\n"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("GET /traces with tracing off: status %d, want 404", resp.Status)
	}
	if snap := srv.Snapshot(); snap.Traces != nil {
		t.Fatalf("stats traces section present with tracing off: %+v", snap.Traces)
	}
}

// TestDTraceParseErrorAnnotated asserts a malformed XML body is traced
// with the parse-error outcome and a 400 status. A 4xx is the client's
// fault, not a tail outcome, so the trace is kept because the client
// sampled it.
func TestDTraceParseErrorAnnotated(t *testing.T) {
	srv := startServer(t, Config{Trace: true})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	body := "<orde" // truncated XML
	req := fmt.Sprintf("POST /service/CBR HTTP/1.1\r\nContent-Type: text/xml\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp, err := cl.Do(dtrace.InjectHeader(nil, []byte(req), dtrace.NewID(), dtrace.NewID()), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 400 {
		t.Fatalf("status %d, want 400", resp.Status)
	}
	waitTraced(t, srv, 1)
	tr := getTraces(t, srv.Addr().String(), "")
	if len(tr.Traces) != 1 || tr.Tail.KeptSampled != 1 {
		t.Fatalf("kept %d traces (%+v), want the 1 sampled", len(tr.Traces), tr.Tail)
	}
	root := tr.Traces[0].Spans[0]
	if root.Outcome != "parse-error" || root.Status != 400 {
		t.Fatalf("root %+v, want outcome=parse-error status=400", root)
	}
}

// TestStagesAgreeWithTracesAndCounters is the cross-instrument check the
// single request clock makes exact: the stage histograms are folded from
// the same spans the tail ring keeps, so after N pipelined requests — all
// client-sampled, so all kept — the
// per-use-case stage counts equal the per-use-case message counters,
// Tail.Seen equals N (control-plane GETs are timed but never offered),
// and in every kept trace the stage spans fit inside their root. What
// the stages do not cover — response formatting and the admission
// bookkeeping — is the residual, logged.
func TestStagesAgreeWithTracesAndCounters(t *testing.T) {
	const batches, depth = 12, 8 // per connection: 12 writes of 8 pipelined requests
	const perUC = 2 * batches * depth / 2
	for _, mode := range []string{"in-place", "forwarded"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{Trace: true}
			if mode == "forwarded" {
				cfg.Upstream = upstream.Config{
					Order: startBackend(t, upstream.BackendConfig{Name: "order"}).Addr().String(),
					Error: startBackend(t, upstream.BackendConfig{Name: "error"}).Addr().String(),
				}
			}
			srv := startServer(t, cfg)

			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl, err := Dial(srv.Addr().String())
					if err != nil {
						t.Error(err)
						return
					}
					defer cl.Close()
					for b := 0; b < batches; b++ {
						var batch []byte
						for i := 0; i < depth; i++ {
							uc := []workload.UseCase{workload.FR, workload.CBR}[i%2]
							batch = dtrace.InjectHeader(batch, workload.HTTPRequest(b*depth+i, uc), dtrace.NewID(), dtrace.NewID())
						}
						if _, err := cl.c.Write(batch); err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < depth; i++ {
							if resp, err := cl.recv(); err != nil || resp.Status != 200 {
								t.Errorf("pipelined response: resp=%+v err=%v", resp, err)
								return
							}
						}
						// A scrape between batches: timed into the GET row, not offered.
						if resp, err := cl.Do([]byte("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"), 5*time.Second); err != nil || resp.Status != 200 {
							t.Errorf("GET /stats: resp=%+v err=%v", resp, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			waitTraced(t, srv, 2*perUC)
			snap := srv.Snapshot()
			if snap.Traces.Tail.Seen != 2*perUC || snap.Messages != 2*perUC {
				t.Fatalf("tail seen %d, messages %d, want both %d", snap.Traces.Tail.Seen, snap.Messages, 2*perUC)
			}
			for _, uc := range []string{"FR", "CBR"} {
				if got := snap.LatencyByUseCase[uc].Count; got != perUC {
					t.Fatalf("%s messages = %d, want %d", uc, got, perUC)
				}
				for _, st := range dtrace.StageNames() {
					want := uint64(perUC)
					if st == "forward" && mode == "in-place" {
						want = 0
					}
					if got := snap.Stages[uc][st].Count; got != want {
						t.Fatalf("%s stage %q count = %d, want %d (%+v)", uc, st, got, want, snap.Stages[uc])
					}
				}
			}
			// Each connection's last scrape is folded after its response, so
			// at least batches-1 per connection are visible — and only the
			// three stages a GET has.
			get := snap.Stages["GET"]
			if len(get) != 3 || get["read"].Count < 2*(batches-1) || get["process"].Count != get["read"].Count {
				t.Fatalf("GET row %+v, want read/process/write with >= %d each", get, 2*(batches-1))
			}

			traces := getTraces(t, srv.Addr().String(), "").Traces
			if len(traces) != 2*perUC {
				t.Fatalf("kept %d traces, want %d", len(traces), 2*perUC)
			}
			var residual, maxResidual, total int64
			for _, tr := range traces {
				root := tr.Spans[0]
				var sum int64
				for _, sp := range tr.Spans[1:] {
					sum += sp.DurUS
				}
				if sum > root.DurUS {
					t.Fatalf("trace %v: stage spans sum to %dus, past their root's %dus: %+v", tr.TraceID, sum, root.DurUS, tr.Spans)
				}
				residual += root.DurUS - sum
				maxResidual = max(maxResidual, root.DurUS-sum)
				total += root.DurUS
			}
			t.Logf("%s: unattributed residual %dus of %dus root time over %d traces (max %dus in one trace)",
				mode, residual, total, len(traces), maxResidual)
		})
	}
}

// TestStagesOnlyWhereReached pins what an unfinished request contributes
// to the stage histograms: exactly the stages it reached, in the default
// use case's row when it ended before a use case was selected.
func TestStagesOnlyWhereReached(t *testing.T) {
	srv := startServer(t, Config{
		UseCase:     workload.SV,
		IdleTimeout: 100 * time.Millisecond,
		Trace:       true,
	})
	counts := func() map[string]uint64 {
		out := map[string]uint64{}
		for uc, row := range srv.Snapshot().Stages {
			for st, h := range row {
				out[uc+"/"+st] = h.Count
			}
		}
		return out
	}
	do := func(raw string, wantStatus int) {
		t.Helper()
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		resp, err := cl.Do([]byte(raw), 5*time.Second)
		if err != nil || resp.Status != wantStatus {
			t.Fatalf("resp=%+v err=%v, want status %d", resp, err, wantStatus)
		}
	}
	expect := func(step string, want map[string]uint64) {
		t.Helper()
		if got := counts(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %s: stage counts %v, want %v", step, got, want)
		}
	}

	// Malformed HTTP (no request target): framed and admitted, fails the
	// parse, answered — never processed, no use case selected.
	do("POST\r\nContent-Length: 0\r\n\r\n", 400)
	waitTraced(t, srv, 1)
	expect("http parse error", map[string]uint64{"SV/read": 1, "SV/parse": 1, "SV/write": 1})

	// Malformed XML on the CBR path: reaches (and fails in) process.
	do("POST /service/CBR HTTP/1.1\r\nContent-Length: 5\r\n\r\n<orde", 400)
	waitTraced(t, srv, 2)
	expect("xml parse error", map[string]uint64{
		"SV/read": 1, "SV/parse": 1, "SV/write": 1,
		"CBR/read": 1, "CBR/parse": 1, "CBR/process": 1, "CBR/write": 1,
	})

	// Shed at the admission bound: read off the wire, nothing else.
	srv.inflight.Add(srv.maxInflight.Load())
	do(string(workload.HTTPRequest(0, workload.FR)), 503)
	srv.inflight.Add(-srv.maxInflight.Load())
	waitTraced(t, srv, 3)
	expect("shed", map[string]uint64{
		"SV/read": 2, "SV/parse": 1, "SV/write": 1,
		"CBR/read": 1, "CBR/parse": 1, "CBR/process": 1, "CBR/write": 1,
	})

	// Reaped mid-request: the read never completed, so no stage at all.
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("POST /order HTTP/1.1\r\nContent-Length: 100\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	waitTraced(t, srv, 4)
	expect("idle timeout", map[string]uint64{
		"SV/read": 2, "SV/parse": 1, "SV/write": 1,
		"CBR/read": 1, "CBR/parse": 1, "CBR/process": 1, "CBR/write": 1,
	})
}
