package upstream

import (
	"bufio"
	"encoding/json"
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

// failNext arms be to drop the connection of its next n messages, as
// POST /fault's fail_next does.
func failNext(be *BackendServer, n int64) {
	be.ApplyFault(FaultSpec{FailNext: &n})
}

// fastCfg keeps the deadlines test-sized.
func fastCfg(order string) Config {
	return Config{
		Order:       order,
		DialTimeout: 500 * time.Millisecond,
		TryTimeout:  2 * time.Second,
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

// TestDroppedExchangeAnswersOnce: a backend that drops an exchange
// mid-flight fails that round trip at once — one failed try, a 502, no
// second try — and its socket never returns to the pool, so the next
// round trip dials anew and succeeds.
func TestDroppedExchangeAnswersOnce(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	failNext(be, 1)
	f, err := New(fastCfg(be.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, err := f.RoundTrip("order", testRequest(0)); err == nil || StatusFor(err) != 502 {
		t.Fatalf("dropped exchange: err=%v, want a 502 error", err)
	}
	res, err := f.RoundTrip("order", testRequest(1))
	if err != nil || res.Status != 200 || res.Reused {
		t.Fatalf("round trip after the drop: res=%+v err=%v, want 200 on a fresh dial", res, err)
	}
	s := f.Snapshot()["order"]
	if s.Failures != 1 || s.Forwarded != 1 || s.Dials != 2 || s.OpenConns != 1 {
		t.Fatalf("failures=%d forwarded=%d dials=%d open=%d, want 1/1/2/1", s.Failures, s.Forwarded, s.Dials, s.OpenConns)
	}
	if be.Requests.Load() != 1 {
		t.Fatalf("backend answered %d requests, want 1", be.Requests.Load())
	}
}

// TestRefusedBackendRecovers: while the backend's port refuses
// connections every round trip is a prompt 502, and the first round trip
// after it comes back succeeds — no state outlives the outage.
func TestRefusedBackendRecovers(t *testing.T) {
	// Reserve a port, then close it so dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	f, err := New(fastCfg(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 3; i++ {
		if _, err := f.RoundTrip("order", testRequest(i)); err == nil {
			t.Fatalf("round trip %d should fail against a closed port", i)
		} else if StatusFor(err) != 502 {
			t.Fatalf("round trip %d: status %d, want 502", i, StatusFor(err))
		}
	}
	if s := f.Snapshot()["order"]; s.Failures != 3 || s.Dials != 3 {
		t.Fatalf("failures=%d dials=%d, want 3/3", s.Failures, s.Dials)
	}

	be, err := StartBackend(addr, BackendConfig{Name: "order"})
	if err != nil {
		t.Fatalf("restart backend on %s: %v", addr, err)
	}
	defer be.Close()
	res, err := f.RoundTrip("order", testRequest(3))
	if err != nil || res.Status != 200 {
		t.Fatalf("first round trip after recovery: res=%+v err=%v", res, err)
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
		t.Fatalf("timed-out round trip took %v — the deadline was not enforced", el)
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
	f, err := New(fastCfg(be.Addr().String()))
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
// answers the live counter JSON (message counts under the gateway's
// keys, fault-injection state, latency histogram) on the same keep-alive
// socket the data plane uses, without counting itself as a message or
// tripping fault injection.
func TestBackendStats(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{
		Name: "order", Delay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	failNext(be, 1)

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
	for _, want := range []string{`"name": "order"`, `"messages": 0`, `"fail_next": 1`, `"active": true`, `"uptime_sec"`, `"latency"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/stats missing %s:\n%s", want, body)
		}
	}
	// What the gateway also counts carries the gateway's key, and what
	// the fault section carries is not published twice.
	var top map[string]any
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"uptime_seconds", "requests", "t_ms", "dropped", "errored", "fault_active", "fail_first"} {
		if _, ok := top[gone]; ok {
			t.Fatalf("/stats publishes %q:\n%s", gone, body)
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
	for _, want := range []string{`"messages": 1`, `"dropped": 1`, `"active": false`, `"delay_ms": 2`} {
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
// injected drop (the next round trip dials afresh) — closing the forwarder and the
// backend returns the goroutine and fd counts to where they started.
func TestForwarderCloseLeavesNoGoroutineOrFD(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)

	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order"})
	if err != nil {
		t.Fatal(err)
	}
	failNext(be, 1)
	f, err := New(fastCfg(be.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	// Injected drop: the round trip fails and its socket is discarded.
	if _, err := f.RoundTrip("order", testRequest(0)); err == nil {
		t.Fatal("drop path: want an error")
	}
	if res, err := f.RoundTrip("order", testRequest(1)); err != nil || res.Reused {
		t.Fatalf("after the drop the next round trip dials: res=%+v err=%v", res, err)
	}
	// Pool hit on that socket.
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
