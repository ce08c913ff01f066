package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/raceflag"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// startServer brings up a gateway on loopback and registers teardown.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// TestEndToEndUseCases is the acceptance path: one live gateway, driven by
// the cmd/aonload client code (RunLoad) for all three paper use cases,
// asserting routing outcomes and non-zero throughput.
func TestEndToEndUseCases(t *testing.T) {
	srv := startServer(t, Config{})
	addr := srv.Addr().String()

	// FR: every message forwards to the order endpoint.
	rep, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 4, Messages: 120})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 120 || rep.Forwarded != 120 {
		t.Fatalf("FR: ok=%d forwarded=%d, want 120/120 (%+v)", rep.OK, rep.Forwarded, rep)
	}
	if rep.MsgsPerSec <= 0 {
		t.Fatalf("FR: non-positive throughput %v", rep.MsgsPerSec)
	}

	// CBR: workload.SOAPMessage gives quantity==1 for even indices, so
	// both routing outcomes must appear, matches ~half.
	rep, err = RunLoad(LoadConfig{Addr: addr, UseCase: workload.CBR, Conns: 3, Messages: 120})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 120 {
		t.Fatalf("CBR: ok=%d, want 120 (%+v)", rep.OK, rep)
	}
	if rep.Match == 0 || rep.RoutedError == 0 {
		t.Fatalf("CBR: match=%d error=%d, want both non-zero", rep.Match, rep.RoutedError)
	}
	if rep.Match+rep.RoutedError != rep.OK {
		t.Fatalf("CBR: outcomes %d+%d != ok %d", rep.Match, rep.RoutedError, rep.OK)
	}

	// SV: every third message is schema-invalid; both verdicts must appear.
	rep, err = RunLoad(LoadConfig{Addr: addr, UseCase: workload.SV, Conns: 3, Messages: 90, InvalidEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 90 {
		t.Fatalf("SV: ok=%d, want 90 (%+v)", rep.OK, rep)
	}
	if rep.Valid == 0 || rep.RoutedError == 0 {
		t.Fatalf("SV: valid=%d invalid=%d, want both non-zero", rep.Valid, rep.RoutedError)
	}
	if rep.Latency.Count == 0 || rep.Latency.P99US == 0 {
		t.Fatalf("SV: empty latency histogram %+v", rep.Latency)
	}

	// Server-side counters mirror what the clients saw.
	snap := srv.Metrics.Snapshot()
	if snap.Messages != 330 {
		t.Fatalf("server messages=%d, want 330", snap.Messages)
	}
	if snap.RoutedMatch == 0 || snap.ValidationOK == 0 || snap.RoutedError == 0 || snap.Forwarded == 0 {
		t.Fatalf("server outcome counters missing a class: %+v", snap)
	}
	if snap.BytesIn == 0 || snap.BytesOut == 0 {
		t.Fatalf("server byte counters zero: %+v", snap)
	}
}

// TestAdmissionControlSheds shows the shed path: with every message
// stalled and at most two in flight, concurrent clients must see 503s
// while accepted work still completes — shedding, not collapse.
func TestAdmissionControlSheds(t *testing.T) {
	srv := startServer(t, Config{
		MaxInflight:  2,
		ProcessDelay: 20 * time.Millisecond,
	})

	const conns = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok200, shed503 uint64
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
			for k := 0; k < 5; k++ {
				resp, err := cl.Do(workload.HTTPRequest(i*5+k, workload.FR), 10*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				switch resp.Status {
				case 200:
					ok200++
				case 503:
					shed503++
				default:
					t.Errorf("unexpected status %d", resp.Status)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if shed503 == 0 {
		t.Fatalf("expected 503 shedding past the bound (ok=%d shed=%d)", ok200, shed503)
	}
	if ok200 == 0 {
		t.Fatalf("admission control starved all work (shed=%d)", shed503)
	}
	snap := srv.Metrics.Snapshot()
	if snap.Shed != shed503 {
		t.Fatalf("server shed counter %d != client-observed %d", snap.Shed, shed503)
	}
	if snap.Messages != ok200 {
		t.Fatalf("server messages %d != client-observed 200s %d", snap.Messages, ok200)
	}
}

// pipelineCounts is what pipelined load saw: one answer per request,
// classified by status.
type pipelineCounts struct {
	sent, ok, shed, client4xx uint64
}

// pipelined opens conns connections; each writes rounds bursts of depth
// requests back to back (use cases cycled through ucs) and reads one
// response per request in order. After the last burst it half-closes
// its side: the gateway must then close the connection with no bytes
// left over, so every request got exactly one response.
func pipelined(t *testing.T, addr string, conns, depth, rounds int, ucs []workload.UseCase) pipelineCounts {
	t.Helper()
	var mu sync.Mutex
	var total pipelineCounts
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(20 * time.Second))
			br := bufio.NewReaderSize(c, 32<<10)
			var got pipelineCounts
			var batch []byte
			for round := 0; round < rounds; round++ {
				batch = batch[:0]
				for k := 0; k < depth; k++ {
					i := g*rounds*depth + round*depth + k
					batch = append(batch, workload.HTTPRequest(i, ucs[i%len(ucs)])...)
				}
				if _, err := c.Write(batch); err != nil {
					t.Errorf("conn %d write: %v", g, err)
					return
				}
				got.sent += uint64(depth)
				for k := 0; k < depth; k++ {
					resp, err := (&Client{br: br}).recv()
					if err != nil {
						t.Errorf("conn %d round %d response %d: %v", g, round, k, err)
						return
					}
					switch {
					case resp.Status == 200:
						got.ok++
					case resp.Status == 503:
						got.shed++
					case resp.Status >= 400 && resp.Status < 500:
						got.client4xx++
					default:
						t.Errorf("conn %d: status %d", g, resp.Status)
					}
				}
			}
			c.(*net.TCPConn).CloseWrite()
			if extra, err := io.ReadAll(br); err != nil || len(extra) > 0 {
				t.Errorf("conn %d: %d bytes after the last response (%v)", g, len(extra), err)
			}
			mu.Lock()
			total.sent += got.sent
			total.ok += got.ok
			total.shed += got.shed
			total.client4xx += got.client4xx
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return total
}

// TestShedConservation holds the one shed path to account for every
// request: sixteen pipelined connections against an in-flight bound of
// two, with every message stalled, in place and forwarded. Each request
// gets exactly one answer, client and server classify them alike, and
// nothing is left in flight after the drain.
func TestShedConservation(t *testing.T) {
	// A message's spin holds its P, so in place no more messages are in
	// flight than there are Ps: the bound of two is overrun only with
	// more Ps than that (a single-P host would shed only when the
	// scheduler preempts a spin).
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	}
	for _, tc := range []struct {
		name    string
		forward bool
	}{{"in-place", false}, {"forwarded", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MaxInflight: 2, ProcessDelay: time.Millisecond}
			if tc.forward {
				cfg.Upstream = upstream.Config{
					Order: startBackend(t, upstream.BackendConfig{Name: "order"}).Addr().String(),
					Error: startBackend(t, upstream.BackendConfig{Name: "error"}).Addr().String(),
				}
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			got := pipelined(t, srv.Addr().String(), 16, 4, 5,
				[]workload.UseCase{workload.FR, workload.CBR, workload.SV, workload.XJ})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if got.sent != 16*4*5 || got.ok+got.shed+got.client4xx != got.sent {
				t.Fatalf("client: 200 %d + 503 %d + 4xx %d != sent %d", got.ok, got.shed, got.client4xx, got.sent)
			}
			if got.shed == 0 || got.ok == 0 {
				t.Fatalf("want both answers under the bound: 200 %d, 503 %d", got.ok, got.shed)
			}
			snap := srv.Metrics.Snapshot()
			if snap.Messages+snap.Shed+snap.ParseErrors != got.sent {
				t.Fatalf("server: messages %d + shed %d + parse errors %d != client sent %d",
					snap.Messages, snap.Shed, snap.ParseErrors, got.sent)
			}
			if snap.Shed != got.shed || snap.Messages != got.ok {
				t.Fatalf("server shed %d / messages %d, client 503 %d / 200 %d", snap.Shed, snap.Messages, got.shed, got.ok)
			}
			if n := srv.inflight.Load(); n != 0 {
				t.Fatalf("inflight %d after the drain", n)
			}
		})
	}
}

// TestStatsEndpoint exercises the observability surface over the wire.
func TestStatsEndpoint(t *testing.T) {
	srv := startServer(t, Config{})
	addr := srv.Addr().String()
	if _, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.CBR, Messages: 10}); err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do([]byte("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("GET /stats status %d", resp.Status)
	}
	var snap Snapshot
	if err := json.Unmarshal(resp.Body, &snap); err != nil {
		t.Fatalf("stats body not JSON: %v\n%s", err, resp.Body)
	}
	if snap.Messages != 10 || snap.Latency.Count != 10 {
		t.Fatalf("stats snapshot wrong: %+v", snap)
	}

	// Unknown GET path is a 404, and the connection stays usable.
	resp, err = cl.Do([]byte("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"), 5*time.Second)
	if err != nil || resp.Status != 404 {
		t.Fatalf("GET /nope: resp=%+v err=%v", resp, err)
	}
}

// TestMalformedRequest pins the framing refusals: each malformed or
// unsupported framing gets its own status and message, is counted under
// ParseErrors, and closes the connection — strict where leniency would
// let the gateway and a backend disagree on where a message ends.
func TestMalformedRequest(t *testing.T) {
	srv := startServer(t, Config{})
	for i, tc := range []struct {
		name, raw string
		status    int
		msg       string
	}{
		{"bad-content-length", "POST /service/CBR HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400, "bad Content-Length"},
		{"conflicting-content-length", "POST /service/FR HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 3\r\n\r\nabc", 400, "conflicting Content-Length"},
		{"transfer-encoding", "POST /service/FR HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nab\r\n0\r\n\r\n", 501, "Transfer-Encoding not supported"},
		{"transfer-encoding-with-length", "POST /service/FR HTTP/1.1\r\nContent-Length: 2\r\ntransfer-encoding: identity\r\n\r\nab", 501, "Transfer-Encoding not supported"},
		{"too-many-header-fields", "POST /service/FR HTTP/1.1\r\n" + strings.Repeat("a:\r\n", 129) + "\r\n", 431, "too many header fields"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			resp, err := cl.Do([]byte(tc.raw), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != tc.status || !strings.Contains(string(resp.Body), tc.msg) {
				t.Fatalf("status %d body %s, want %d %q", resp.Status, resp.Body, tc.status, tc.msg)
			}
			// Counted before the response was written.
			if got := srv.Metrics.ParseErrors.Load(); got != uint64(i+1) {
				t.Fatalf("parse errors = %d, want %d", got, i+1)
			}
			// Connection: close — the unread remainder is never served.
			if _, err := cl.Do(workload.HTTPRequest(0, workload.FR), 5*time.Second); err == nil {
				t.Fatal("connection stayed open after a framing refusal")
			}
		})
	}

	// Repeated Content-Length headers that agree are one length.
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do([]byte("POST /service/FR HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab"), 5*time.Second)
	if err != nil || resp.Status != 200 {
		t.Fatalf("agreeing Content-Length pair: resp=%+v err=%v", resp, err)
	}
}

// TestPathDispatch confirms one gateway serves the whole grid via the
// request path, with the configured use case as fallback.
func TestPathDispatch(t *testing.T) {
	srv := startServer(t, Config{UseCase: workload.SV})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Path names CBR: index 0 has quantity 1 → match.
	resp, err := cl.Do(workload.HTTPRequest(0, workload.CBR), 5*time.Second)
	if err != nil || resp.Outcome != "match" {
		t.Fatalf("CBR via path: resp=%+v err=%v", resp, err)
	}
	// Unrecognized path falls back to the configured SV.
	body := workload.SOAPMessage(4)
	raw := []byte("POST /other HTTP/1.1\r\nHost: x\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + string(body))
	resp, err = cl.Do(raw, 5*time.Second)
	if err != nil || resp.Outcome != "valid" {
		t.Fatalf("default SV: resp=%+v err=%v", resp, err)
	}
}

// TestGracefulShutdown: in-flight work completes, then new connections
// are refused.
func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Config{ProcessDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	// Launch a request that will still be in flight when Shutdown starts.
	done := make(chan *ClientResp, 1)
	go func() {
		cl, err := Dial(addr)
		if err != nil {
			done <- nil
			return
		}
		defer cl.Close()
		resp, err := cl.Do(workload.HTTPRequest(1, workload.FR), 10*time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- resp
	}()
	time.Sleep(10 * time.Millisecond) // let it be admitted

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if resp := <-done; resp == nil || resp.Status != 200 {
		t.Fatalf("in-flight request lost during drain: %+v", resp)
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestSweepSmoke runs the scaling harness end to end at tiny scale.
func TestSweepSmoke(t *testing.T) {
	rows, err := RunSweep([]int{1, 2},
		LoadConfig{UseCase: workload.CBR, Conns: 2, Messages: 40, Size: 2048},
		Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Procs != 1 || rows[1].Procs != 2 {
		t.Fatalf("rows: %+v", rows)
	}
	for _, r := range rows {
		if r.Report.OK != 40 {
			t.Fatalf("GOMAXPROCS=%d: ok=%d want 40", r.Procs, r.Report.OK)
		}
		if r.Server.Messages != 40 {
			t.Fatalf("GOMAXPROCS=%d: server messages=%d", r.Procs, r.Server.Messages)
		}
	}
	table := FormatSweepTable(rows)
	if !strings.Contains(table, "GOMAXPROCS") || !strings.Contains(table, "scaling") {
		t.Fatalf("table missing columns:\n%s", table)
	}
}

// startBackend brings up one order/error endpoint with teardown.
func startBackend(t *testing.T, cfg upstream.BackendConfig) *upstream.BackendServer {
	t.Helper()
	be, err := upstream.StartBackend("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(be.Close)
	return be
}

// TestForwardingEndToEnd is the paper's end-to-end FR topology on
// loopback: gateway → order/error backends over pooled keep-alive
// connections, driven by the aonload client code, with the upstream
// section visible in the stats snapshot. Run under -race in CI.
func TestForwardingEndToEnd(t *testing.T) {
	order := startBackend(t, upstream.BackendConfig{Name: "order"})
	errBE := startBackend(t, upstream.BackendConfig{Name: "error"})
	srv := startServer(t, Config{Upstream: upstream.Config{
		Order: order.Addr().String(),
		Error: errBE.Addr().String(),
	}})
	addr := srv.Addr().String()

	// FR: every message forwards to the order backend; the client sees
	// the backend's ack body relayed, not a synthesized verdict.
	rep, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 4, Messages: 80})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 80 || rep.Forwarded != 80 {
		t.Fatalf("FR: ok=%d forwarded=%d, want 80/80 (%+v)", rep.OK, rep.Forwarded, rep)
	}
	if got := order.Requests.Load(); got != 80 {
		t.Fatalf("order backend saw %d requests, want 80", got)
	}

	// CBR: the two verdicts split across the two backends.
	rep, err = RunLoad(LoadConfig{Addr: addr, UseCase: workload.CBR, Conns: 2, Messages: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 60 || rep.Match == 0 || rep.RoutedError == 0 {
		t.Fatalf("CBR: ok=%d match=%d error=%d (%+v)", rep.OK, rep.Match, rep.RoutedError, rep)
	}
	if errBE.Requests.Load() == 0 {
		t.Fatal("error backend saw no CBR-routed traffic")
	}
	if order.Requests.Load()+errBE.Requests.Load() != 140 {
		t.Fatalf("backends saw %d+%d requests, want 140 total",
			order.Requests.Load(), errBE.Requests.Load())
	}

	// The relayed body is the backend's, and the stats snapshot carries
	// the per-backend upstream section with reuse accounting.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do(workload.HTTPRequest(0, workload.FR), 5*time.Second)
	if err != nil || resp.Status != 200 {
		t.Fatalf("direct FR: resp=%+v err=%v", resp, err)
	}
	if !strings.Contains(string(resp.Body), `"backend":"order"`) {
		t.Fatalf("response body not relayed from backend: %.120s", resp.Body)
	}
	snap := srv.Snapshot()
	up, ok := snap.Upstream["order"]
	if !ok {
		t.Fatalf("snapshot missing upstream section: %+v", snap)
	}
	if up.Forwarded == 0 || up.Latency.Count != up.Forwarded {
		t.Fatalf("upstream order counters: %+v", up)
	}
	if up.PoolHits == 0 {
		t.Fatal("keep-alive pool never reused a connection")
	}
	if up.Dials > uint64(4+2+1) {
		t.Fatalf("dials=%d — pooling not bounding socket churn", up.Dials)
	}
	if snap.UpstreamErrs != 0 {
		t.Fatalf("unexpected upstream errors: %d", snap.UpstreamErrs)
	}
}

// TestForwardingBackendDown: with the backend gone, clients get a
// prompt 502 (never a hang), the gateway counts upstream errors, and the
// backend is marked down after the failure threshold.
func TestForwardingBackendDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	srv := startServer(t, Config{Upstream: upstream.Config{
		Order:         deadAddr,
		Retries:       1,
		BackoffBase:   time.Millisecond,
		DialTimeout:   200 * time.Millisecond,
		FailThreshold: 2,
		ProbeInterval: time.Hour, // no recovery during this test
	}})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 4; i++ {
		t0 := time.Now()
		resp, err := cl.Do(workload.HTTPRequest(i, workload.FR), 5*time.Second)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 502 {
			t.Fatalf("request %d: status %d, want 502", i, resp.Status)
		}
		if el := time.Since(t0); el > 2*time.Second {
			t.Fatalf("request %d took %v — 502 must be prompt", i, el)
		}
	}
	snap := srv.Snapshot()
	if snap.UpstreamErrs != 4 {
		t.Fatalf("upstream_errors=%d, want 4", snap.UpstreamErrs)
	}
	up := snap.Upstream["order"]
	if up.Healthy {
		t.Fatal("backend should be marked down")
	}
	if up.FastFails == 0 {
		t.Fatal("circuit never fast-failed — every 502 paid a dial")
	}
}

// TestForwardingTimeoutMapsTo504: a backend slower than the per-try
// deadline turns into a client-facing 504.
func TestForwardingTimeoutMapsTo504(t *testing.T) {
	slow := startBackend(t, upstream.BackendConfig{Name: "order", Delay: 300 * time.Millisecond})
	srv := startServer(t, Config{Upstream: upstream.Config{
		Order:       slow.Addr().String(),
		Retries:     -1, // no retries: one deadline expiry answers
		TryTimeout:  40 * time.Millisecond,
		BackoffBase: time.Millisecond,
	}})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Do(workload.HTTPRequest(0, workload.FR), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 504 {
		t.Fatalf("status %d, want 504", resp.Status)
	}
	if up := srv.Snapshot().Upstream["order"]; up.Timeouts == 0 {
		t.Fatalf("upstream timeouts=%d, want >0", up.Timeouts)
	}
}

// TestIdleTimeoutReapsStalledConn: a client that stalls mid-request (and
// one that never speaks) is disconnected by the read deadline instead of
// pinning its reader goroutine forever.
func TestIdleTimeoutReapsStalledConn(t *testing.T) {
	srv := startServer(t, Config{IdleTimeout: 80 * time.Millisecond})
	addr := srv.Addr().String()

	// Stalls mid-request: headers promise a body that never arrives.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("POST /service/FR HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")); err != nil {
		t.Fatal(err)
	}
	// Never speaks at all.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	for _, c := range []net.Conn{stalled, silent} {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatal("stalled connection not closed by the gateway")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("gateway still holding the stalled connection after 2s")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics.IdleTimeouts.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("idle_timeouts=%d, want 2", srv.Metrics.IdleTimeouts.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A live client on the same server is unaffected between requests
	// that arrive faster than the deadline.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		if resp, err := cl.Do(workload.HTTPRequest(i, workload.FR), 5*time.Second); err != nil || resp.Status != 200 {
			t.Fatalf("live client request %d: resp=%+v err=%v", i, resp, err)
		}
	}
}

// TestPipelinedRequests: two framed POSTs in one write come back as two
// in-order responses on the same connection — the buffered reader frames
// them without another wire read, so the idle deadline can't misfire.
func TestPipelinedRequests(t *testing.T) {
	srv := startServer(t, Config{IdleTimeout: 200 * time.Millisecond})
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// FR then CBR(index 0 → match): distinct outcomes prove ordering.
	batch := append(append([]byte{}, workload.HTTPRequest(0, workload.FR)...),
		workload.HTTPRequest(0, workload.CBR)...)
	if _, err := c.Write(batch); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(c, 32<<10)
	first, err := (&Client{br: br}).recv()
	if err != nil || first.Status != 200 || first.Outcome != "forwarded" {
		t.Fatalf("first pipelined response: %+v err=%v", first, err)
	}
	second, err := (&Client{br: br}).recv()
	if err != nil || second.Status != 200 || second.Outcome != "match" {
		t.Fatalf("second pipelined response: %+v err=%v", second, err)
	}

	// The connection is still keep-alive: a third, sequential request works.
	if _, err := c.Write(workload.HTTPRequest(2, workload.SV)); err != nil {
		t.Fatal(err)
	}
	third, err := (&Client{br: br}).recv()
	if err != nil || third.Status != 200 {
		t.Fatalf("post-pipeline request: %+v err=%v", third, err)
	}
	if got := srv.Metrics.Messages.Load(); got != 3 {
		t.Fatalf("server messages=%d, want 3", got)
	}
}

// TestClientRecvAllocs pins the load client's response read at its two
// necessary allocations — the ClientResp and the body.
func TestClientRecvAllocs(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-AON-Route: order\r\nX-AON-Outcome: match\r\nContent-Length: 64\r\n\r\n" + strings.Repeat("x", 64)
	src := strings.NewReader(wire)
	cl := &Client{br: bufio.NewReaderSize(src, 32<<10)}
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(wire)
		cl.br.Reset(src)
		if resp, err := cl.recv(); err != nil || resp.Route != "order" || resp.Outcome != "match" || resp.Bytes != len(wire) {
			t.Fatalf("resp=%+v err=%v", resp, err)
		}
	}); n > 2 {
		t.Errorf("recv: %v allocs/op, want <= 2", n)
	}
}

// TestWriteRespVectoredAllocs pins the response write at zero
// allocations when a pooled body rides as its own writev segment — the
// relayed-upstream shape: the connection's vector is reused and both
// pooled buffers go back to respBufPool.
func TestWriteRespVectoredAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are not meaningful")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() { // drain, so the writes never block
		buf := make([]byte, 32<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()

	s := &Server{Metrics: newMetrics()}
	var vec httpmsg.Writev
	head := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 300\r\n\r\n")
	body := bytes.Repeat([]byte("x"), 300)
	if n := testing.AllocsPerRun(200, func() {
		hb, bb := respBufPool.Get().(*[]byte), respBufPool.Get().(*[]byte)
		r := response{head: append((*hb)[:0], head...), buf: hb, body: append((*bb)[:0], body...), bodyBuf: bb}
		if !s.writeResp(c, &r, &vec) {
			t.Fatal("write failed")
		}
	}); n != 0 {
		t.Errorf("vectored writeResp: %v allocs/op, want 0", n)
	}
	if want := uint64(201 * (len(head) + len(body))); s.Metrics.BytesOut.Load() != want {
		t.Fatalf("bytes out %d, want %d", s.Metrics.BytesOut.Load(), want)
	}
}

func TestNewPipelineRejectsBadExpression(t *testing.T) {
	if _, err := NewPipeline(workload.CBR, "///", nil); err == nil {
		t.Fatal("bad XPath accepted")
	}
}

// TestConnPipelineAllocs pins the connection path's message plane at zero
// allocations: from the frame to the verdict — and for XJ the translated
// body and its headers — every use case runs in memory the connection
// owns (its wscratch) or borrows from a pool. SelectUseCase is left out:
// its use-case parse is the floor left under every message. Each verdict
// must be the one the public Process gives on the same bytes.
func TestConnPipelineAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are not meaningful")
	}
	pipe, err := NewPipeline(workload.FR, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sc wscratch
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"CBR match", workload.HTTPRequest(0, workload.CBR)},
		{"CBR no match", workload.HTTPRequest(1, workload.CBR)},
		{"SV valid", workload.HTTPRequest(0, workload.SV)},
		{"SV invalid", RawPost(workload.SV, workload.InvalidSOAPMessage(0))},
		{"XJ", workload.HTTPRequest(0, workload.XJ)},
		{"DPI clean", workload.HTTPRequest(0, workload.DPI)},
		{"DPI dirty", workload.HTTPRequest(workload.DirtyEvery-1, workload.DPI)},
		{"AUTH", workload.HTTPRequest(0, workload.AUTH)},
		{"AUTH tampered", workload.HTTPRequest(workload.TamperEvery-1, workload.AUTH)},
	} {
		var req httpmsg.Request
		if err := httpmsg.ParseRequestInto(c.raw, &req); err != nil {
			t.Fatal(err)
		}
		uc := pipe.SelectUseCase(req.Target)
		want := pipe.Process(uc, &req)
		if want == OutParseError {
			t.Fatalf("%s: does not process", c.name)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := httpmsg.ParseRequestInto(c.raw, &sc.req); err != nil {
				t.Fatal(err)
			}
			if out := pipe.process(uc, &sc.req, &sc.xj); out != want {
				t.Fatalf("%s: connection path %v, Process %v", c.name, out, want)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
		if want == OutTranslated {
			clen, _ := sc.req.Get("Content-Length")
			if !bytes.Equal(sc.req.Body, req.Body) || clen != strconv.Itoa(len(req.Body)) {
				t.Errorf("XJ: connection path body %.40q (Content-Length %s), Process %.40q", sc.req.Body, clen, req.Body)
			}
		}
	}
}

// TestServeLoopAllocs pins the whole connection loop — read, frame,
// process, write — over loopback at the SelectUseCase floor: at most 3
// allocations per message for FR, CBR and SV (2 today). The client
// writes prebuilt requests and skips each response body in the reader,
// so every counted allocation is the server's. With Trace on, each
// request also takes a pooled recorder, stamps its stages, folds them
// into the histograms and meets the tail sampler at its default keep
// ratio; that must stay within half an allocation of Trace off, which a
// recorder allocated per request breaks.
func TestServeLoopAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are not meaningful")
	}
	const warm, n = 200, 2000
	untraced := map[workload.UseCase]float64{}
	for _, traced := range []bool{false, true} {
		for _, uc := range []workload.UseCase{workload.FR, workload.CBR, workload.SV} {
			name := uc.String() + "/trace=" + strconv.FormatBool(traced)
			t.Run(name, func(t *testing.T) {
				srv := startServer(t, Config{UseCase: uc, Trace: traced})
				c, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				br := bufio.NewReaderSize(c, 32<<10)
				reqs := make([][]byte, 16)
				for i := range reqs {
					reqs[i] = workload.HTTPRequest(i, uc)
				}
				roundTrip := func(i int) {
					if _, err := c.Write(reqs[i%len(reqs)]); err != nil {
						t.Fatal(err)
					}
					h, err := httpmsg.ReadResponseHead(br, nil)
					if err != nil || h.Status != 200 {
						t.Fatalf("message %d: status %d err=%v", i, h.Status, err)
					}
					if _, err := br.Discard(h.ContentLength); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < warm; i++ {
					roundTrip(i)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < n; i++ {
					roundTrip(i)
				}
				runtime.ReadMemStats(&after)
				per := float64(after.Mallocs-before.Mallocs) / n
				t.Logf("%.3f allocs/msg", per)
				if per > 3 {
					t.Errorf("%.3f allocs/msg, want <= 3", per)
				}
				if !traced {
					untraced[uc] = per
				} else if base, ok := untraced[uc]; ok && per > base+0.5 {
					t.Errorf("tracing adds %.3f allocs/msg (%.3f vs %.3f untraced), want < 0.5", per-base, per, base)
				}
			})
		}
	}
}

// TestHistQuantiles pins the histogram math.
func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Microsecond) // buckets up to 2^7
	}
	s := h.Snapshot()
	if s.Count != 100 || s.MaxUS != 100 {
		t.Fatalf("count=%d max=%d", s.Count, s.MaxUS)
	}
	if s.P50US < 32 || s.P50US > 128 {
		t.Fatalf("p50=%d out of log-bucket range", s.P50US)
	}
	if s.P99US < s.P50US {
		t.Fatalf("p99=%d < p50=%d", s.P99US, s.P50US)
	}
	if s.MeanUS < 49 || s.MeanUS > 52 {
		t.Fatalf("mean=%f", s.MeanUS)
	}
}
