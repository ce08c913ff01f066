package upstream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// postFault sends a raw POST /fault with the given JSON body and decodes
// the returned state.
func postFault(t *testing.T, c net.Conn, br *bufio.Reader, spec string) FaultState {
	t.Helper()
	if _, err := fmt.Fprintf(c, "POST /fault HTTP/1.1\r\nHost: order\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(spec), spec); err != nil {
		t.Fatal(err)
	}
	res, _, err := readFresh(br)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("POST /fault status=%d body=%s", res.Status, res.Body)
	}
	var st FaultState
	if err := json.Unmarshal(res.Body, &st); err != nil {
		t.Fatalf("POST /fault body: %v\n%s", err, res.Body)
	}
	return st
}

// TestFaultEndpoint drives the backend's runtime fault control plane:
// POST /fault scripts error-rate, fail-next, latency-inflation, and
// outage faults mid-run; GET /fault reads the state back; clear resets.
func TestFaultEndpoint(t *testing.T) {
	be, err := StartBackend("127.0.0.1:0", BackendConfig{Name: "order"})
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

	// error_rate=1: every message answers an injected 500 on the same
	// keep-alive socket (a served response, not a dropped connection).
	st := postFault(t, c, br, `{"error_rate":1}`)
	if !st.Active || st.ErrorRate != 1 {
		t.Fatalf("state after error_rate=1: %+v", st)
	}
	if _, err := c.Write(testRequest(0)); err != nil {
		t.Fatal(err)
	}
	res, _, err := readFresh(br)
	if err != nil || res.Status != 500 {
		t.Fatalf("under error_rate=1: res=%+v err=%v", res, err)
	}
	if !strings.Contains(string(res.Body), `"error": "injected"`) {
		t.Fatalf("injected 500 body: %s", res.Body)
	}

	// clear + fail_next=1: next message drops the connection.
	st = postFault(t, c, br, `{"clear":true,"fail_next":1}`)
	if st.ErrorRate != 0 || st.FailNext != 1 {
		t.Fatalf("state after clear+fail_next: %+v", st)
	}
	if _, err := c.Write(testRequest(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFresh(br); err == nil {
		t.Fatal("fail_next did not drop the connection")
	}

	// Fresh socket: budget exhausted, message served; extra delay shows
	// up in the observed latency.
	c2, err := net.Dial("tcp", be.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	br2 := bufio.NewReader(c2)
	postFault(t, c2, br2, `{"extra_delay_ms":5}`)
	t0 := time.Now()
	if _, err := c2.Write(testRequest(2)); err != nil {
		t.Fatal(err)
	}
	if res, _, err := readFresh(br2); err != nil || res.Status != 200 {
		t.Fatalf("post-budget request: res=%+v err=%v", res, err)
	}
	if d := time.Since(t0); d < 5*time.Millisecond {
		t.Fatalf("extra_delay_ms not applied: round trip %v", d)
	}

	// GET /fault reads the state without changing it.
	if _, err := fmt.Fprintf(c2, "GET /fault HTTP/1.1\r\nHost: order\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	res, _, err = readFresh(br2)
	if err != nil || res.Status != 200 {
		t.Fatalf("GET /fault: res=%+v err=%v", res, err)
	}
	var got FaultState
	if err := json.Unmarshal(res.Body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ExtraDelayMS != 5 || !got.Active || got.Dropped != 1 || got.Errored != 1 {
		t.Fatalf("GET /fault state: %+v", got)
	}

	// down_ms: messages are dropped for the window, control plane stays
	// up, and the window expires on its own.
	postFault(t, c2, br2, `{"clear":true,"down_ms":150}`)
	c3, err := net.Dial("tcp", be.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	br3 := bufio.NewReader(c3)
	if _, err := c3.Write(testRequest(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFresh(br3); err == nil {
		t.Fatal("down window did not drop the message")
	}
	// Control plane survives the outage.
	if st := postFault(t, c2, br2, ``); st.DownRemainingMS <= 0 {
		t.Fatalf("state during outage: %+v", st)
	}
	time.Sleep(160 * time.Millisecond)
	c4, err := net.Dial("tcp", be.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	br4 := bufio.NewReader(c4)
	if _, err := c4.Write(testRequest(4)); err != nil {
		t.Fatal(err)
	}
	if res, _, err := readFresh(br4); err != nil || res.Status != 200 {
		t.Fatalf("post-outage request: res=%+v err=%v", res, err)
	}

	// /stats carries the fault section and injected-error counters.
	stats := be.Stats()
	if stats.Fault.Errored != 1 || stats.Fault.Dropped != 2 || stats.FaultPosts < 4 {
		t.Fatalf("stats: errored=%d dropped=%d fault_posts=%d", stats.Fault.Errored, stats.Fault.Dropped, stats.FaultPosts)
	}
}

// TestErrorHitDeterministic pins the error-rate draw: the same (seq,
// seed) always decides the same way, distinct seeds decide differently,
// and the hit fraction tracks the configured rate.
func TestErrorHitDeterministic(t *testing.T) {
	mk := func(seed uint64, rate float64) *BackendServer {
		s := &BackendServer{cfg: BackendConfig{Seed: seed}}
		s.errRateBits.Store(math.Float64bits(rate))
		return s
	}
	const n = 10000
	a, b := mk(1, 0.3), mk(1, 0.3)
	hits := 0
	for i := uint64(1); i <= n; i++ {
		ha, hb := a.errorHit(i), b.errorHit(i)
		if ha != hb {
			t.Fatalf("seq %d: same seed disagrees", i)
		}
		if ha {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("hit fraction %.3f, want ~0.30", frac)
	}
	other := mk(2, 0.3)
	diff := 0
	for i := uint64(1); i <= 1000; i++ {
		if other.errorHit(i) != a.errorHit(i) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("distinct seeds produced identical error streams")
	}
	if mk(1, 0).errorHit(7) {
		t.Fatal("rate 0 must never hit")
	}
	if !mk(1, 1).errorHit(7) {
		t.Fatal("rate 1 must always hit")
	}
}
