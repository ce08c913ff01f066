package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
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
func startServer(t testing.TB, cfg Config) *Server {
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
// the load client (Client.Do, classified by Counts.record) for all three
// paper use cases, asserting routing outcomes and latencies.
func TestEndToEndUseCases(t *testing.T) {
	srv := startServer(t, Config{})
	addr := srv.Addr().String()

	// FR: every message forwards to the order endpoint.
	rep := drive(LoadConfig{Addr: addr, UseCase: workload.FR}, 4, 120)
	if rep.OK != 120 || rep.Forwarded != 120 {
		t.Fatalf("FR: ok=%d forwarded=%d, want 120/120 (%+v)", rep.OK, rep.Forwarded, rep)
	}

	// CBR: workload.SOAPMessage gives quantity==1 for even indices, so
	// both routing outcomes must appear, matches ~half.
	rep = drive(LoadConfig{Addr: addr, UseCase: workload.CBR}, 3, 120)
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
	rep = drive(LoadConfig{Addr: addr, UseCase: workload.SV, InvalidEvery: 3}, 3, 90)
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
// stalled on its backend and at most two in flight, concurrent clients
// must see 503s while accepted work still completes — shedding, not
// collapse.
func TestAdmissionControlSheds(t *testing.T) {
	srv := startServer(t, Config{
		MaxInflight: 2,
		Upstream:    slowUpstream(t, 20*time.Millisecond),
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
// classified by status. server5xx counts every 5xx but 503; s502 and s504
// are its forwarding-failure share.
type pipelineCounts struct {
	sent, ok, shed, client4xx, server5xx, s502, s504 uint64
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
					case resp.Status >= 500 && resp.Status < 600:
						got.server5xx++
						switch resp.Status {
						case 502:
							got.s502++
						case 504:
							got.s504++
						}
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
			total.server5xx += got.server5xx
			total.s502 += got.s502
			total.s504 += got.s504
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return total
}

// TestAdmissionBoundConfig pins the admission bound New applies: a
// negative bound is refused, 0 means 5x GOMAXPROCS and follows a width
// changed after New at the next Snapshot, and a set bound stays put.
func TestAdmissionBoundConfig(t *testing.T) {
	if _, err := New(Config{MaxInflight: -1}); err == nil {
		t.Error("MaxInflight -1 accepted")
	}
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := New(Config{MaxInflight: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.maxInflight.Load(); got != 10 {
		t.Fatalf("default admission bound %d at width 2, want 10", got)
	}
	runtime.GOMAXPROCS(4)
	if w := srv.Snapshot().Workers; w != 4 {
		t.Fatalf("snapshot workers %d, want 4", w)
	}
	fixed.Snapshot()
	if got := srv.maxInflight.Load(); got != 20 {
		t.Fatalf("default admission bound %d after a switch to width 4, want 20", got)
	}
	if got := fixed.maxInflight.Load(); got != 7 {
		t.Fatalf("set admission bound %d after a width switch, want 7", got)
	}
}

// TestShedConservation holds the one shed path to account for every
// request: sixteen pipelined connections against an in-flight bound of
// two, with every message stalled, in place, forwarded, forwarded to a
// slow backend, and forwarded while the order backend drops a few
// messages (blips), drops all of them (outage) or answers a fifth with
// 500 (errors). Each request gets exactly one answer, client and server
// classify them alike, every forwarding failure is one upstream error,
// and nothing is left in flight after the drain.
func TestShedConservation(t *testing.T) {
	// A message's spin holds its P, so in place no more messages are in
	// flight than there are Ps: the bound of two is overrun only with
	// more Ps than that (a single-P host would shed only when the
	// scheduler preempts a spin).
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	}
	failNext, down, rate := int64(8), 60_000.0, 0.2
	// Every forwarded row parks admitted messages on the upstream hop —
	// both backends stall each answer at least 1 ms, the slow-backend
	// row's order backend 8 ms: a goroutine waiting on its round trip
	// holds an admission slot but no P, which is the overload the static
	// bound exists to stop. The in-place row holds its slots only while
	// it processes and writes, which at 16 connections still overruns a
	// bound of 2.
	for _, tc := range []struct {
		name      string
		forward   bool
		backDelay time.Duration
		fault     *upstream.FaultSpec // applied to the order backend before the load
	}{
		{"in-place", false, 0, nil},
		{"forwarded", true, 0, nil},
		{"forwarded-slow-backend", true, 8 * time.Millisecond, nil},
		{"forwarded-blips", true, 0, &upstream.FaultSpec{FailNext: &failNext}},
		{"forwarded-outage", true, 0, &upstream.FaultSpec{DownMS: &down}},
		{"forwarded-errors", true, 0, &upstream.FaultSpec{ErrorRate: &rate}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MaxInflight: 2}
			var order *upstream.BackendServer
			if tc.forward {
				order = startBackend(t, upstream.BackendConfig{Name: "order", Delay: max(tc.backDelay, time.Millisecond)})
				cfg.Upstream = upstream.Config{
					Order: order.Addr().String(),
					Error: startBackend(t, upstream.BackendConfig{Name: "error", Delay: time.Millisecond}).Addr().String(),
				}
			}
			if tc.fault != nil {
				order.ApplyFault(*tc.fault)
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
			if got.sent != 16*4*5 || got.ok+got.shed+got.client4xx+got.server5xx != got.sent {
				t.Fatalf("client: 200 %d + 503 %d + 4xx %d + 5xx %d != sent %d",
					got.ok, got.shed, got.client4xx, got.server5xx, got.sent)
			}
			if got.shed == 0 || got.ok == 0 {
				t.Fatalf("want both answers under the bound: 200 %d, 503 %d", got.ok, got.shed)
			}
			if tc.backDelay > 0 && got.ok+got.shed != got.sent {
				t.Fatalf("slow backend: 200 %d + 503 %d != sent %d", got.ok, got.shed, got.sent)
			}
			snap := srv.Metrics.Snapshot()
			if snap.Messages+snap.Shed+snap.ParseErrors != got.sent {
				t.Fatalf("server: messages %d + shed %d + parse errors %d != client sent %d",
					snap.Messages, snap.Shed, snap.ParseErrors, got.sent)
			}
			if snap.Shed != got.shed || snap.Messages != got.ok+got.server5xx {
				t.Fatalf("server shed %d / messages %d, client 503 %d / 200+5xx %d",
					snap.Shed, snap.Messages, got.shed, got.ok+got.server5xx)
			}
			if snap.UpstreamErrs != got.s502+got.s504 {
				t.Fatalf("server upstream errors %d, client 502 %d + 504 %d", snap.UpstreamErrs, got.s502, got.s504)
			}
			if tc.fault != nil {
				if st := order.FaultState(); st.Dropped+st.Errored == 0 {
					t.Fatalf("the order backend's fault never fired: %+v", st)
				}
			} else if got.server5xx != 0 {
				t.Fatalf("%d 5xx answers with no fault injected", got.server5xx)
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
	if rep := drive(LoadConfig{Addr: addr, UseCase: workload.CBR}, 1, 10); rep.OK != 10 {
		t.Fatalf("ok=%d of 10 (%+v)", rep.OK, rep)
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

// TestEveryAnswerKindOneWriter drives one connection through a processed
// answer, a GET /stats, a shed 503 and a frame-error 400 in turn. Every
// byte the client reads is counted once in BytesOut, each refusal moves
// its own counter by one, and each kind's trace lands where it always
// has: the processed and shed ones in the tail, the GET in the control
// row only, the malformed frame's nowhere.
func TestEveryAnswerKindOneWriter(t *testing.T) {
	srv := startServer(t, Config{MaxInflight: 1, Trace: true})
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := srv.Metrics.Snapshot()
	read := 0
	for _, step := range []struct {
		name   string
		raw    string
		pin    bool // the test holds the one admission slot: the POST is shed
		status int
	}{
		{"processed", string(workload.HTTPRequest(0, workload.FR)), false, 200},
		{"stats", "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n", false, 200},
		{"shed", string(workload.HTTPRequest(1, workload.FR)), true, 503},
		{"frame-error", "POST /service/FR HTTP/1.1\r\nContent-Length: nope\r\n\r\n", false, 400},
	} {
		if step.pin {
			srv.inflight.Add(1)
		}
		resp, err := cl.Do([]byte(step.raw), 5*time.Second)
		if step.pin {
			srv.inflight.Add(-1)
		}
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if resp.Status != step.status {
			t.Fatalf("%s: status %d, want %d", step.name, resp.Status, step.status)
		}
		read += resp.Bytes
	}
	// The 400 closes the connection: nothing follows it on the wire.
	if n, err := cl.br.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("after the 400: read %d bytes, err %v; want EOF", n, err)
	}
	snap := srv.Snapshot()
	if got := snap.BytesOut - before.BytesOut; got != uint64(read) {
		t.Fatalf("bytes out moved %d, client read %d", got, read)
	}
	if d := [3]uint64{snap.Messages - before.Messages, snap.Shed - before.Shed, snap.ParseErrors - before.ParseErrors}; d != [3]uint64{1, 1, 1} {
		t.Fatalf("messages, shed, parse errors moved %v, want one each", d)
	}
	if tail := snap.Traces.Tail; tail.Seen != 2 || tail.KeptErr != 1 {
		t.Fatalf("tail %+v, want the processed and shed requests seen and the shed kept", tail)
	}
	if n := snap.Stages["GET"]["write"].Count; n != 1 {
		t.Fatalf("control row write count %d, want 1", n)
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

// TestGracefulShutdown: in-flight work (a forward waiting on its slow
// backend) completes, then new connections are refused.
func TestGracefulShutdown(t *testing.T) {
	srv, err := New(Config{Upstream: slowUpstream(t, 30*time.Millisecond)})
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

// countFDs reports the process's open descriptor count where /proc
// exposes it.
func countFDs() (int, bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	return len(ents), true
}

// TestServerShutdownLeavesNoGoroutineOrFD is the leak test proper: one
// full cycle with every background subsystem on — counters, tracing,
// forwarding to two in-process backends — driven by
// pipelined load that overruns the admission bound, must leave the
// process at its goroutine and descriptor baseline once the gateway is
// shut down and the backends closed.
func TestServerShutdownLeavesNoGoroutineOrFD(t *testing.T) {
	_, haveFDs := countFDs()
	cycle := func() (shed uint64) {
		// Each backend stalls every answer 1 ms, so forwards hold their
		// admission slots.
		order := startBackend(t, upstream.BackendConfig{Name: "order", Delay: time.Millisecond})
		errBE := startBackend(t, upstream.BackendConfig{Name: "error", Delay: time.Millisecond})
		srv, err := New(Config{
			Counters:    true,
			Trace:       true,
			MaxInflight: int64(runtime.GOMAXPROCS(0)) + 1,
			Upstream:    upstream.Config{Order: order.Addr().String(), Error: errBE.Addr().String()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		// Twice the bound in connections, each holding at most one
		// message in flight, so the bound is overrun on any host.
		conns := 2 * (runtime.GOMAXPROCS(0) + 1)
		got := pipelined(t, srv.Addr().String(), conns, 4, 5, []workload.UseCase{workload.CBR, workload.FR})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		order.Close()
		errBE.Close()
		snap := srv.Metrics.Snapshot()
		if snap.Messages+snap.Shed != got.sent {
			t.Fatalf("answered %d + shed %d != sent %d", snap.Messages, snap.Shed, got.sent)
		}
		return snap.Shed
	}
	// One warm-up cycle so lazily created runtime state (the netpoller's
	// fds) exists before the baseline is taken.
	cycle()
	baseGoroutines := runtime.NumGoroutine()
	baseFDs, _ := countFDs()
	if shed := cycle(); shed == 0 {
		t.Fatal("no request was shed — the cycle must cover the shed path")
	}
	waitFor(t, "goroutines to return to the baseline", func() bool {
		return runtime.NumGoroutine() <= baseGoroutines
	})
	if haveFDs {
		waitFor(t, "descriptors to return to the baseline", func() bool {
			n, _ := countFDs()
			return n <= baseFDs
		})
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

// slowUpstream starts an order and an error backend that each stall
// every answer by delay, so a forwarded message holds its admission slot
// at least that long.
func slowUpstream(t *testing.T, delay time.Duration) upstream.Config {
	return upstream.Config{
		Order: startBackend(t, upstream.BackendConfig{Name: "order", Delay: delay}).Addr().String(),
		Error: startBackend(t, upstream.BackendConfig{Name: "error", Delay: delay}).Addr().String(),
	}
}

// TestForwardingEndToEnd is the paper's end-to-end FR topology on
// loopback: gateway → order/error backends over pooled keep-alive
// connections, driven by the load client, with the upstream
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
	rep := drive(LoadConfig{Addr: addr, UseCase: workload.FR}, 4, 80)
	if rep.OK != 80 || rep.Forwarded != 80 {
		t.Fatalf("FR: ok=%d forwarded=%d, want 80/80 (%+v)", rep.OK, rep.Forwarded, rep)
	}
	if got := order.Requests.Load(); got != 80 {
		t.Fatalf("order backend saw %d requests, want 80", got)
	}

	// CBR: the two verdicts split across the two backends.
	rep = drive(LoadConfig{Addr: addr, UseCase: workload.CBR}, 2, 60)
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
// prompt 502 (never a hang) and the gateway counts one upstream error,
// and one failed dial, per request.
func TestForwardingBackendDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	srv := startServer(t, Config{Upstream: upstream.Config{
		Order:       deadAddr,
		DialTimeout: 200 * time.Millisecond,
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
	if up := snap.Upstream["order"]; up.Failures != 4 || up.Dials != 4 {
		t.Fatalf("failures=%d dials=%d, want 4/4", up.Failures, up.Dials)
	}
}

// TestForwardingTimeoutMapsTo504: a backend slower than the per-try
// deadline turns into a client-facing 504.
func TestForwardingTimeoutMapsTo504(t *testing.T) {
	slow := startBackend(t, upstream.BackendConfig{Name: "order", Delay: 300 * time.Millisecond})
	srv := startServer(t, Config{Upstream: upstream.Config{
		Order:      slow.Addr().String(),
		TryTimeout: 40 * time.Millisecond,
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
// pooled buffers go back to respBufPool — and when a prebuilt head rides
// alone, the shed shape.
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
	s.Metrics.BytesOut.Store(0)
	if n := testing.AllocsPerRun(200, func() {
		r := response{head: respShed}
		if !s.writeResp(c, &r, &vec) {
			t.Fatal("write failed")
		}
	}); n != 0 {
		t.Errorf("head-only writeResp: %v allocs/op, want 0", n)
	}
	if want := uint64(201 * len(respShed)); s.Metrics.BytesOut.Load() != want {
		t.Fatalf("head-only bytes out %d, want %d", s.Metrics.BytesOut.Load(), want)
	}
}

func TestNewPipelineRejectsBadExpression(t *testing.T) {
	if _, err := NewPipeline(workload.CBR, "///", nil); err == nil {
		t.Fatal("bad XPath accepted")
	}
}

// TestSelectUseCase: the last segment of the target's path names the use
// case in any letter case, whatever the query or a trailing slash; a path
// that names none gets the pipeline's default.
func TestSelectUseCase(t *testing.T) {
	pipe, err := NewPipeline(workload.FR, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		target string
		want   workload.UseCase
	}{
		{"/service/CBR", workload.CBR},
		{"/service/cbr", workload.CBR},
		{"http://h/service/SV", workload.SV},
		{"/service/CBR?x=1", workload.CBR},
		{"/service/CBR/", workload.CBR},
		{"/service/xj/?a=b/c", workload.XJ},
		{"/service/Auth", workload.AUTH},
		{"/service/DPI", workload.DPI},
		{"/service/FR", workload.FR},
		{"/", workload.FR},
		{"", workload.FR},
		{"CBR", workload.FR},
		{"/service/CBRX", workload.FR},
		{"/service/?CBR", workload.FR},
		{"/service/CBR//", workload.FR},
	} {
		if got := pipe.SelectUseCase(c.target); got != c.want {
			t.Errorf("SelectUseCase(%q) = %v, want %v", c.target, got, c.want)
		}
	}
	sv, err := NewPipeline(workload.SV, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sv.SelectUseCase("/"); got != workload.SV {
		t.Errorf("bare target on an SV pipeline: %v, want SV", got)
	}
}

// TestConnPipelineAllocs pins the connection path's message plane at zero
// allocations: from the frame to the verdict — and for XJ the translated
// body and its headers — every use case runs in memory the connection
// owns (its wscratch) or borrows from a pool, its use case selected from
// the target (or defaulted, for a bare one) in place. Each verdict must
// be the one the public Process gives on the same bytes.
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
		{"FR", workload.HTTPRequest(0, workload.FR)},
		{"FR bare target", retarget(t, workload.HTTPRequest(0, workload.FR), "/")},
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
			if got := pipe.SelectUseCase(sc.req.Target); got != uc {
				t.Fatalf("%s: selects %v, then %v", c.name, uc, got)
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

// retarget is raw with its request target replaced by target.
func retarget(t testing.TB, raw []byte, target string) []byte {
	t.Helper()
	var req httpmsg.Request
	if err := httpmsg.ParseRequestInto(raw, &req); err != nil {
		t.Fatal(err)
	}
	req.Target = target
	return httpmsg.FormatRequest(&req)
}

// TestServeLoopAllocs pins the whole connection loop — read, frame,
// process, write — over loopback at zero allocations per message: at
// most 0.05 (a stray runtime or test-side allocation over the run) for
// every use case, for a bare "/" target that runs the server's default,
// and for CBR forwarded to in-process order and error backends, whose
// allocations count too. The client writes prebuilt requests and skips
// each response body in the reader. With Trace on, each request also
// takes a pooled recorder, stamps its stages, folds them into the
// histograms and meets the tail sampler at its default keep ratio; that
// must stay within 0.05 allocations of Trace off, which a recorder
// allocated per request breaks. Each row checks that every message ran
// the use case it names.
func TestServeLoopAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race; allocation counts are not meaningful")
	}
	const warm, n, budget = 200, 2000, 0.05
	type row struct {
		name   string
		uc     workload.UseCase // the use case every message must run
		target string           // request target; "" keeps /service/<uc>
		fwd    bool             // forward to in-process order/error backends
	}
	var rows []row
	for _, uc := range append(append([]workload.UseCase{}, workload.AllUseCases...), workload.ExtendedUseCases...) {
		rows = append(rows, row{name: uc.String(), uc: uc})
	}
	rows = append(rows,
		row{name: "bare", uc: workload.CBR, target: "/"},
		row{name: "forwarded", uc: workload.CBR, fwd: true},
	)
	untraced := map[string]float64{}
	for _, traced := range []bool{false, true} {
		for _, r := range rows {
			t.Run(r.name+"/trace="+strconv.FormatBool(traced), func(t *testing.T) {
				cfg := Config{UseCase: workload.FR, Trace: traced}
				if r.target != "" {
					cfg.UseCase = r.uc // a bare target runs the default
				}
				if r.fwd {
					cfg.Upstream = upstream.Config{
						Order: startBackend(t, upstream.BackendConfig{Name: "order"}).Addr().String(),
						Error: startBackend(t, upstream.BackendConfig{Name: "error"}).Addr().String(),
					}
				}
				srv := startServer(t, cfg)
				c, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				br := bufio.NewReaderSize(c, 32<<10)
				reqs := make([][]byte, 16)
				for i := range reqs {
					reqs[i] = workload.HTTPRequest(i, r.uc)
					if r.target != "" {
						reqs[i] = retarget(t, reqs[i], r.target)
					}
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
				if got := srv.Metrics.LatencyByUC[r.uc].Snapshot().Count; got != warm+n {
					t.Fatalf("%d messages ran %v, want %d", got, r.uc, warm+n)
				}
				per := float64(after.Mallocs-before.Mallocs) / n
				t.Logf("%.3f allocs/msg", per)
				if per > budget {
					t.Errorf("%.3f allocs/msg, want <= %v", per, budget)
				}
				if !traced {
					untraced[r.name] = per
				} else if base, ok := untraced[r.name]; ok && per > base+budget {
					t.Errorf("tracing adds %.3f allocs/msg (%.3f vs %.3f untraced), want <= %v", per-base, per, base, budget)
				}
			})
		}
	}
}

// BenchmarkServeLoop times the connection loop under pipelining: one
// loopback connection, batches of 8 pipelined 1 KB requests (seed 1),
// each batch one client write, its 8 responses read before the next. It
// reports ns/msg and the gateway's writes/msg — the process's
// /proc/self/io syscw delta net of the client's one write per batch —
// the before-row for coalescing pipelined responses into fewer writes.
func BenchmarkServeLoop(b *testing.B) {
	const batch = 8
	for _, uc := range []workload.UseCase{workload.FR, workload.CBR} {
		b.Run(uc.String(), func(b *testing.B) {
			if _, err := syscw(); err != nil {
				b.Skip("no write-syscall counter:", err)
			}
			srv := startServer(b, Config{UseCase: uc})
			c, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			br := bufio.NewReaderSize(c, 64<<10)
			var batches [2][]byte
			for i := range 2 * batch {
				batches[i/batch] = append(batches[i/batch], workload.HTTPRequestSeeded(i, uc, 1024, 1)...)
			}
			roundTrip := func(k int) {
				if _, err := c.Write(batches[k%2]); err != nil {
					b.Fatal(err)
				}
				for range batch {
					h, err := httpmsg.ReadResponseHead(br, nil)
					if err != nil || h.Status != 200 {
						b.Fatalf("batch %d: status %d err=%v", k, h.Status, err)
					}
					if _, err := br.Discard(h.ContentLength); err != nil {
						b.Fatal(err)
					}
				}
			}
			for k := range 50 {
				roundTrip(k)
			}
			n := (b.N + batch - 1) / batch
			w0, _ := syscw()
			b.ResetTimer()
			for k := range n {
				roundTrip(k)
			}
			b.StopTimer()
			w1, _ := syscw()
			msgs := float64(n * batch)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
			b.ReportMetric(float64(w1-w0-uint64(n))/msgs, "writes/msg")
		})
	}
}

// syscw reads this process's write-syscall count from /proc/self/io.
func syscw() (uint64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, errors.New("/proc/self/io: no syscw line")
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
