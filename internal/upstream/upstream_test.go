package upstream

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/raceflag"
)

// testRequest is a minimal framed POST the backend can discard.
func testRequest(n int) []byte {
	body := fmt.Sprintf(`<order><quantity>%d</quantity></order>`, n)
	return []byte(fmt.Sprintf(
		"POST /service/FR HTTP/1.1\r\nHost: order\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body))
}

// fastCfg keeps retry/backoff/probe delays test-sized.
func fastCfg(order string) Config {
	return Config{
		Order:         order,
		DialTimeout:   500 * time.Millisecond,
		TryTimeout:    2 * time.Second,
		BackoffBase:   time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
	}
}

// TestPoolReuse: sequential round trips ride one keep-alive socket — one
// dial, the rest pool hits — and the idle/open gauges agree.
func TestPoolReuse(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	f, err := New(fastCfg(be.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const n = 10
	for i := 0; i < n; i++ {
		res, err := f.RoundTrip("order", testRequest(i))
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if res.Status != 200 || res.Backend != "order" {
			t.Fatalf("round trip %d: %+v", i, res)
		}
		if wantReused := i > 0; res.Reused != wantReused {
			t.Fatalf("round trip %d: reused=%v want %v", i, res.Reused, wantReused)
		}
	}
	s := f.Snapshot()["order"]
	if s.Dials != 1 || s.PoolHits != n-1 {
		t.Fatalf("dials=%d hits=%d, want 1/%d", s.Dials, s.PoolHits, n-1)
	}
	if s.OpenConns != 1 || s.IdleConns != 1 {
		t.Fatalf("open=%d idle=%d, want 1/1", s.OpenConns, s.IdleConns)
	}
	if s.Forwarded != n || s.Latency.Count != n {
		t.Fatalf("forwarded=%d latency.count=%d, want %d", s.Forwarded, s.Latency.Count, n)
	}
	if be.Requests.Load() != n {
		t.Fatalf("backend saw %d requests, want %d", be.Requests.Load(), n)
	}
}

// TestRetryThenSuccess: the backend drops the first two exchanges
// mid-flight; the forwarder re-dials and the third try wins.
func TestRetryThenSuccess(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order", FailFirst: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	cfg := fastCfg(be.Addr().String())
	cfg.Retries = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	res, err := f.RoundTrip("order", testRequest(0))
	if err != nil {
		t.Fatalf("round trip should survive two injected failures: %v", err)
	}
	if res.Tries != 3 {
		t.Fatalf("tries=%d, want 3", res.Tries)
	}
	s := f.Snapshot()["order"]
	if s.Retries != 2 || s.Failures != 2 || s.Forwarded != 1 {
		t.Fatalf("retries=%d failures=%d forwarded=%d, want 2/2/1", s.Retries, s.Failures, s.Forwarded)
	}
	if !s.Healthy {
		t.Fatal("two failures under threshold 3 must not mark down")
	}
}

// TestDownFastFailAndRecovery is the circuit's life cycle: consecutive
// dial failures mark the backend down, traffic then sheds 502 without
// dialing, and once the backend returns, the background prober restores
// it and traffic flows again.
func TestDownFastFailAndRecovery(t *testing.T) {
	// Reserve a port, then close it so dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cfg := fastCfg(addr)
	cfg.Retries = 0
	cfg.FailThreshold = 2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 2; i++ {
		if _, err := f.RoundTrip("order", testRequest(i)); err == nil {
			t.Fatalf("round trip %d should fail against a closed port", i)
		} else if StatusFor(err) != 502 {
			t.Fatalf("round trip %d: status %d, want 502", i, StatusFor(err))
		}
	}
	s := f.Snapshot()["order"]
	if s.Healthy || s.Downs != 1 {
		t.Fatalf("after threshold failures: healthy=%v downs=%d", s.Healthy, s.Downs)
	}

	// Circuit open: fast-fail without another request-path dial (probing
	// is the background prober's job and never counts in Dials).
	dialsBefore := s.Dials
	if _, err := f.RoundTrip("order", testRequest(2)); !errors.Is(err, errDown) {
		t.Fatalf("want errDown while circuit open, got %v", err)
	}
	s = f.Snapshot()["order"]
	if s.Dials != dialsBefore || s.FastFails == 0 {
		t.Fatalf("fast-fail dialed: dials %d→%d fastfails=%d", dialsBefore, s.Dials, s.FastFails)
	}

	// Backend comes back on the same port; the background prober notices
	// within ProbeInterval and restores the circuit — requests only see
	// errDown until then.
	be, err := StartBackend(addr, BackendConfig{Name: "order"})
	if err != nil {
		t.Fatalf("restart backend on %s: %v", addr, err)
	}
	defer be.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := f.RoundTrip("order", testRequest(3))
		if err == nil {
			if res.Status != 200 {
				t.Fatalf("recovered round trip: %+v", res)
			}
			break
		}
		if !errors.Is(err, errDown) {
			t.Fatalf("while down, requests must fast-fail with errDown, got %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s = f.Snapshot()["order"]
	if !s.Healthy || s.Probes == 0 {
		t.Fatalf("after recovery: healthy=%v probes=%d", s.Healthy, s.Probes)
	}
}

// TestProberRestoresWithoutTraffic: recovery must not depend on request
// traffic at all — the background prober alone flips the circuit closed
// once the backend is back, and its probe socket is adopted into the
// pool so the first post-recovery request skips the dial.
func TestProberRestoresWithoutTraffic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cfg := fastCfg(addr)
	cfg.Retries = 0
	cfg.FailThreshold = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, err := f.RoundTrip("order", testRequest(0)); err == nil {
		t.Fatal("round trip should fail against a closed port")
	}
	if s := f.Snapshot()["order"]; s.Healthy {
		t.Fatal("one failure at threshold 1 must mark down")
	}

	be, err := StartBackend(addr, BackendConfig{Name: "order"})
	if err != nil {
		t.Fatalf("restart backend on %s: %v", addr, err)
	}
	defer be.Close()

	// No traffic from here on: only the prober can restore the circuit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := f.Snapshot()["order"]
		if s.Healthy {
			if s.Probes == 0 {
				t.Fatalf("restored without a probe? %+v", s)
			}
			if s.IdleConns == 0 {
				t.Fatalf("probe socket not adopted into the pool: %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never restored the backend: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := f.RoundTrip("order", testRequest(1))
	if err != nil || res.Status != 200 {
		t.Fatalf("post-recovery round trip: res=%+v err=%v", res, err)
	}
	if s := f.Snapshot()["order"]; s.PoolHits == 0 {
		t.Fatalf("post-recovery request should ride the adopted socket: %+v", s)
	}
}

// TestPrewarmMinIdle: with a MinIdle floor the prober fills the pool
// before any traffic, and the first requests are pool hits — zero
// request-path dials.
func TestPrewarmMinIdle(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	cfg := fastCfg(be.Addr().String())
	cfg.MinIdlePerBackend = 4
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := f.Snapshot()["order"]
		if s.IdleConns >= 4 {
			if s.Prewarmed < 4 {
				t.Fatalf("idle floor reached with prewarmed=%d", s.Prewarmed)
			}
			if s.Dials != 0 {
				t.Fatalf("pre-warming must not count as request dials: %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never pre-warmed to 4: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	res, err := f.RoundTrip("order", testRequest(0))
	if err != nil || res.Status != 200 {
		t.Fatalf("round trip: res=%+v err=%v", res, err)
	}
	if s := f.Snapshot()["order"]; s.Dials != 0 || s.PoolHits != 1 {
		t.Fatalf("first request should be a pool hit on a pre-warmed conn: dials=%d hits=%d",
			s.Dials, s.PoolHits)
	}
}

// TestMaxLifetimeEviction: a pooled conn older than MaxConnLifetime is
// evicted at checkout and replaced with a fresh dial, and the eviction
// is counted.
func TestMaxLifetimeEviction(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	cfg := fastCfg(be.Addr().String())
	cfg.MaxConnLifetime = 30 * time.Millisecond
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, err := f.RoundTrip("order", testRequest(0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // pooled conn outlives its lifetime

	res, err := f.RoundTrip("order", testRequest(1))
	if err != nil || res.Status != 200 {
		t.Fatalf("round trip after expiry: res=%+v err=%v", res, err)
	}
	if res.Reused {
		t.Fatal("expired conn must not be reused")
	}
	s := f.Snapshot()["order"]
	if s.Dials != 2 || s.Expired == 0 {
		t.Fatalf("dials=%d expired=%d, want 2 dials and >0 evictions", s.Dials, s.Expired)
	}
	if s.Forwarded != 2 {
		t.Fatalf("forwarded=%d, want 2", s.Forwarded)
	}
}

// TestTryTimeoutMapsTo504: a backend slower than the per-try deadline is
// a 504, counted as a timeout, and the round trip returns promptly.
func TestTryTimeoutMapsTo504(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order", Delay: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	cfg := fastCfg(be.Addr().String())
	cfg.TryTimeout = 30 * time.Millisecond
	cfg.Retries = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	t0 := time.Now()
	_, err = f.RoundTrip("order", testRequest(0))
	if err == nil {
		t.Fatal("want timeout error")
	}
	if StatusFor(err) != 504 {
		t.Fatalf("status %d, want 504 (%v)", StatusFor(err), err)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("timed-out round trip took %v — per-try deadline not enforced", el)
	}
	if s := f.Snapshot()["order"]; s.Timeouts == 0 {
		t.Fatalf("timeouts=%d, want >0", s.Timeouts)
	}
}

// TestNoBackendRoute: a route without a configured backend is the
// caller's cue to answer in place.
func TestNoBackendRoute(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	f, err := New(fastCfg(be.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Has("error") {
		t.Fatal("error route should be unconfigured")
	}
	if _, err := f.RoundTrip("error", testRequest(0)); !errors.Is(err, errNoBackend) {
		t.Fatalf("want errNoBackend, got %v", err)
	}
}

// TestConfigValidation: disabled config and junk addresses are rejected.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New on empty config should fail")
	}
	if _, err := New(Config{Order: "no-port"}); err == nil {
		t.Fatal("New on a port-less address should fail")
	}
}

// TestReadResponse pins the response parser: keep-alive detection and
// malformed input.
func TestReadResponse(t *testing.T) {
	res, ka, err := readFresh(bufio.NewReader(strings.NewReader(
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\nhi")))
	if err != nil || !ka || res.Status != 200 || string(res.Body) != "hi" {
		t.Fatalf("res=%+v ka=%v err=%v", res, ka, err)
	}
	_, ka, err = readFresh(bufio.NewReader(strings.NewReader(
		"HTTP/1.1 502 Bad Gateway\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")))
	if err != nil || ka {
		t.Fatalf("Connection: close not detected (ka=%v err=%v)", ka, err)
	}
	if _, _, err := readFresh(bufio.NewReader(strings.NewReader("garbage\r\n\r\n"))); err == nil {
		t.Fatal("malformed status line should error")
	}
}

// readFresh reads one response into a fresh Result — how the tests that
// keep several answers around call readResult.
func readFresh(br *bufio.Reader) (*Result, bool, error) {
	res := &Result{}
	ka, err := readResult(br, res)
	return res, ka, err
}

// TestReadResultAllocs pins the forwarder's response read at zero
// allocations: the body lands in the caller's reused Result.
func TestReadResultAllocs(t *testing.T) {
	body := strings.Repeat("x", 128)
	wire := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 128\r\n\r\n" + body
	src := strings.NewReader(wire)
	br := bufio.NewReaderSize(src, 32<<10)
	var res Result
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(wire)
		br.Reset(src)
		if ka, err := readResult(br, &res); err != nil || !ka || string(res.Body) != body || res.ContentType != "application/json" {
			t.Fatalf("res=%+v ka=%v err=%v", res, ka, err)
		}
	}); n != 0 {
		t.Errorf("readResult: %v allocs/op, want 0", n)
	}
}

// TestRoundTripIntoAllocs pins the whole forwarded hop at zero
// allocations: a pooled connection's writev, the response read into a
// reused Result, and the in-process backend's framing, body discard and
// ack. testing.AllocsPerRun reads the process-wide Mallocs, so the
// backend's connection goroutine is counted too.
func TestRoundTripIntoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	cfg := fastCfg(be.Addr().String())
	cfg.ProbeInterval = time.Hour // no prober pass inside the measurement
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := testRequest(1)
	head, body, _ := strings.Cut(string(req), "\r\n\r\n")
	hb, bb := []byte(head+"\r\n\r\n"), []byte(body)
	var res Result
	if err := f.RoundTripInto("order", hb, bb, &res); err != nil { // dial, grow both sides' buffers
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := f.RoundTripInto("order", hb, bb, &res); err != nil || res.Status != 200 || !res.Reused {
			t.Fatalf("res=%+v err=%v", res, err)
		}
	}); n != 0 {
		t.Errorf("forwarded round trip: %v allocs/op, want 0", n)
	}
	if !strings.Contains(string(res.Body), `"backend":"order"`) {
		t.Fatalf("body not the backend's ack: %s", res.Body)
	}
}

// TestBackendKeepAlive: the backend serves sequential requests on one
// connection and pads responses to the configured size.
func TestBackendKeepAlive(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "error", RespBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	c, err := net.Dial("tcp", be.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for i := 0; i < 3; i++ {
		if _, err := c.Write(testRequest(i)); err != nil {
			t.Fatal(err)
		}
		res, ka, err := readFresh(br)
		if err != nil || !ka || res.Status != 200 {
			t.Fatalf("req %d: res=%+v ka=%v err=%v", i, res, ka, err)
		}
		if len(res.Body) < 500 || !strings.Contains(string(res.Body), `"backend":"error"`) {
			t.Fatalf("req %d: body %d bytes: %.80s", i, len(res.Body), res.Body)
		}
	}
	if got := be.Requests.Load(); got != 3 {
		t.Fatalf("backend requests=%d, want 3", got)
	}
}

// TestBackendStats pins the backend's /stats control plane: GET /stats
// answers the live counter JSON (request counts, fault-injection state,
// latency histogram) on the same keep-alive socket the data plane uses,
// without counting itself as a message or tripping fault injection.
func TestBackendStats(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{
		Name: "order", Delay: 2 * time.Millisecond, FailFirst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	get := func(c net.Conn, br *bufio.Reader, path string) (int, string) {
		t.Helper()
		if _, err := fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: order\r\n\r\n", path); err != nil {
			t.Fatal(err)
		}
		res, _, err := readFresh(br)
		if err != nil {
			t.Fatal(err)
		}
		return res.Status, string(res.Body)
	}

	c, err := net.Dial("tcp", be.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)

	// Before any message: fault injection armed, zero requests.
	status, body := get(c, br, "/stats")
	if status != 200 {
		t.Fatalf("/stats status=%d body=%s", status, body)
	}
	for _, want := range []string{`"name": "order"`, `"requests": 0`, `"fail_first": 1`, `"fault_active": true`, `"t_ms"`, `"latency"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/stats missing %s:\n%s", want, body)
		}
	}

	// First POST trips the injected fault (connection dropped)...
	if _, err := c.Write(testRequest(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFresh(br); err == nil {
		t.Fatal("injected fault did not drop the connection")
	}
	// ...the second, on a fresh socket, is served.
	c2, err := net.Dial("tcp", be.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	br2 := bufio.NewReader(c2)
	if _, err := c2.Write(testRequest(1)); err != nil {
		t.Fatal(err)
	}
	if res, _, err := readFresh(br2); err != nil || res.Status != 200 {
		t.Fatalf("post-fault request: res=%+v err=%v", res, err)
	}

	status, body = get(c2, br2, "/stats")
	if status != 200 {
		t.Fatalf("/stats status=%d", status)
	}
	for _, want := range []string{`"requests": 1`, `"dropped": 1`, `"fault_active": false`, `"delay_ms": 2`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/stats missing %s:\n%s", want, body)
		}
	}
	// The served message's latency (>= the 2ms delay) landed in the hist.
	if !strings.Contains(body, `"count": 1`) {
		t.Fatalf("latency histogram not populated:\n%s", body)
	}
	if be.Stats().Latency.P50US < 2000 {
		t.Fatalf("latency p50=%dus, want >= delay 2000us", be.Stats().Latency.P50US)
	}

	// Unknown GET paths 404 but keep the connection usable.
	if status, _ = get(c2, br2, "/nope"); status != 404 {
		t.Fatalf("GET /nope status=%d want 404", status)
	}
	if _, err := c2.Write(testRequest(2)); err != nil {
		t.Fatal(err)
	}
	if res, _, err := readFresh(br2); err != nil || res.Status != 200 {
		t.Fatalf("request after 404: res=%+v err=%v", res, err)
	}
}

// openFDs counts this process's open file descriptors (the directory
// handle ReadDir holds is in every count alike).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestForwarderCloseLeavesNoGoroutineOrFD: after round trips down every
// path that parks, drops or replaces a pooled socket — a pool hit, a
// backend answer with Connection: close (the socket is discarded), an
// injected drop (the retry dials afresh) — closing the forwarder and the
// backend returns the goroutine and fd counts to where they started.
func TestForwarderCloseLeavesNoGoroutineOrFD(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)

	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order", FailFirst: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(fastCfg(be.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	// Injected drop: the first try's socket dies, the retry dials anew.
	if res, err := f.RoundTrip("order", testRequest(0)); err != nil || res.Tries != 2 {
		t.Fatalf("retry path: res=%+v err=%v", res, err)
	}
	// Pool hit on the retry's socket.
	if res, err := f.RoundTrip("order", testRequest(1)); err != nil || !res.Reused {
		t.Fatalf("pool-hit path: res=%+v err=%v", res, err)
	}
	// The backend refuses a Transfer-Encoding request with 501 and
	// Connection: close, so the forwarder discards the socket.
	te := []byte("POST /service/FR HTTP/1.1\r\nHost: order\r\nTransfer-Encoding: chunked\r\n\r\n")
	if res, err := f.RoundTrip("order", te); err != nil || res.Status != 501 {
		t.Fatalf("Connection: close path: res=%+v err=%v", res, err)
	}
	if res, err := f.RoundTrip("order", testRequest(2)); err != nil || res.Reused {
		t.Fatalf("after a discard the next round trip dials: res=%+v err=%v", res, err)
	}
	if s := f.Snapshot()["order"]; s.Dials != 3 || s.PoolHits != 2 || s.OpenConns != 1 {
		t.Fatalf("dials=%d hits=%d open=%d, want 3/2/1", s.Dials, s.PoolHits, s.OpenConns)
	}

	f.Close()
	be.Close()
	// Closed sockets' fds go at Close; goroutines parked on them may take
	// a moment to observe it and return.
	deadline := time.Now().Add(2 * time.Second)
	for {
		g, n := runtime.NumGoroutine(), openFDs(t)
		if g <= goroutines && n <= fds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines (was %d), %d fds (was %d)", g, goroutines, n, fds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
