package httpmsg_test

import (
	"bufio"
	"context"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/httpmsg"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// TestFrameTableEveryServer drives the framing table over loopback
// through both servers that frame requests — the gateway and the backend
// behind it. The property is the smuggling one: for the same bytes both
// answer the same number of requests, then refuse with the same status
// and close. (Only the refusal's wording may differ: the backend discards
// bodies unbounded, so an over-limit body is "truncated" to it.)
func TestFrameTableEveryServer(t *testing.T) {
	gw, be := startServers(t)

	refused := uint64(0)
	for _, tc := range httpmsg.FrameCases {
		if tc.Stall {
			continue
		}
		if tc.Status != 0 {
			refused++
		}
		for server, addr := range map[string]string{"gateway": gw.Addr().String(), "backend": be.Addr().String()} {
			statuses, closed := exchange(t, addr, tc.Wire)
			want := make([]int, tc.Frames, tc.Frames+1)
			for i := range want {
				want[i] = 200
			}
			if tc.Status != 0 {
				want = append(want, tc.Status)
			}
			if !slices.Equal(statuses, want) {
				t.Errorf("%s/%s: statuses %v, want %v", tc.Name, server, statuses, want)
			}
			if tc.Status != 0 && !closed {
				t.Errorf("%s/%s: refusal did not announce Connection: close", tc.Name, server)
			}
		}
	}
	// Every refusal is a gateway ParseError, the three new forms included.
	if got := gw.Metrics.ParseErrors.Load(); got != refused {
		t.Errorf("gateway parse errors = %d, want %d", got, refused)
	}
}

// TestParseRefusalsEveryServer: a request that frames cleanly but that
// the one parser refuses — an unknown method, a request line with no
// protocol, a header line with no colon, a protocol other than HTTP/1.x —
// gets 400 and Connection: close from both servers: a gateway parse
// error, never a message the backend served.
func TestParseRefusalsEveryServer(t *testing.T) {
	gw, be := startServers(t)

	refusals := []string{
		"BREW /x HTTP/1.1\r\nHost: aon\r\nContent-Length: 2\r\n\r\nab",
		"POST /x\r\nHost: aon\r\nContent-Length: 2\r\n\r\nab",
		"POST /x HTTP/1.1\r\nHost: aon\r\nno-colon-here\r\nContent-Length: 2\r\n\r\nab",
		"POST /x SPDY/3\r\nHost: aon\r\nContent-Length: 2\r\n\r\nab",
	}
	for _, wire := range refusals {
		for server, addr := range map[string]string{"gateway": gw.Addr().String(), "backend": be.Addr().String()} {
			statuses, closed := exchange(t, addr, wire)
			if !slices.Equal(statuses, []int{400}) || !closed {
				t.Errorf("%s: %q answered %v (close %v), want one 400 and Connection: close", server, wire, statuses, closed)
			}
		}
	}
	if n := be.Requests.Load(); n != 0 {
		t.Errorf("backend served %d messages, want 0", n)
	}
	if n := gw.Metrics.ParseErrors.Load(); n != uint64(len(refusals)) {
		t.Errorf("gateway parse errors = %d, want %d", n, len(refusals))
	}
}

// startServers starts the two servers that frame requests, a gateway and
// a backend, each stopped when the test ends.
func startServers(t *testing.T) (*gateway.Server, *upstream.BackendServer) {
	t.Helper()
	gw, err := gateway.New(gateway.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
	})
	be, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(be.Close)
	return gw, be
}

// exchange sends wire, half-closes, and reads responses until the server
// closes. It returns their statuses and whether the last one said
// Connection: close.
func exchange(t *testing.T, addr, wire string) (statuses []int, closed bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, wire); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).CloseWrite()
	br := bufio.NewReader(c)
	for {
		h, err := httpmsg.ReadResponseHead(br, nil)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("server kept the connection open after %v", statuses)
			}
			return statuses, closed
		}
		if _, err := br.Discard(h.ContentLength); err != nil {
			t.Fatal(err)
		}
		statuses, closed = append(statuses, h.Status), !h.KeepAlive
	}
}

// TestResponseTableEveryClient serves each row of the response table from
// a canned endpoint and reads it through both clients that frame
// responses — the forwarder and the load client. A response either client
// would misframe must be an error to both.
func TestResponseTableEveryClient(t *testing.T) {
	for _, tc := range httpmsg.ResponseCases {
		addr := canned(t, tc.Wire)

		fwd, err := upstream.New(upstream.Config{Order: addr, TryTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fwd.RoundTrip("order", []byte("POST / HTTP/1.1\r\n\r\n"))
		fwd.Close()
		switch {
		case tc.Err != "":
			if err == nil || !strings.Contains(err.Error(), tc.Err) {
				t.Errorf("%s/forwarder: err=%v, want %q", tc.Name, err, tc.Err)
			}
		case err != nil || res.Status != tc.Status || string(res.Body) != tc.Body:
			t.Errorf("%s/forwarder: res=%+v err=%v", tc.Name, res, err)
		}

		cl, err := gateway.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Do([]byte("POST / HTTP/1.1\r\n\r\n"), 2*time.Second)
		cl.Close()
		switch {
		case tc.Err != "":
			if err == nil || !strings.Contains(err.Error(), tc.Err) {
				t.Errorf("%s/client: err=%v, want %q", tc.Name, err, tc.Err)
			}
		case err != nil || resp.Status != tc.Status || string(resp.Body) != tc.Body || resp.Bytes != len(tc.Wire):
			t.Errorf("%s/client: resp=%+v err=%v", tc.Name, resp, err)
		}
	}
}

// TestHostileResponseLengthIs502: a backend declaring a body no machine
// could hold is a bad upstream response like any other — the gateway
// answers 502 on the connection it was asked on and stays up, rather than
// handing the declared length to make.
func TestHostileResponseLengthIs502(t *testing.T) {
	addr := canned(t, "HTTP/1.1 200 OK\r\nContent-Length: 1125899906842624\r\n\r\n") // 1<<50
	gw, err := gateway.New(gateway.Config{Upstream: upstream.Config{
		Order: addr, Error: addr, TryTimeout: 2 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
	}()
	cl, err := gateway.Dial(gw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		resp, err := cl.Do(workload.HTTPRequest(i, workload.FR), 5*time.Second)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		// The second request may already meet the tripped circuit breaker.
		if resp.Status != 502 || (i == 0 && !strings.Contains(string(resp.Body), "exceeds")) {
			t.Fatalf("request %d: status %d body %q, want 502 (the first naming the bound)", i, resp.Status, resp.Body)
		}
	}
	if got := gw.Metrics.UpstreamErrs.Load(); got != 2 {
		t.Errorf("upstream errors = %d, want 2", got)
	}
}

// canned listens on loopback and answers every connection's first
// request with wire, then closes.
func canned(t *testing.T, wire string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { // the forwarder's prober may hold an idle conn open
				defer c.Close()
				if _, _, err := httpmsg.ReadHead(bufio.NewReader(c), nil); err == nil {
					io.WriteString(c, wire)
				}
			}()
		}
	}()
	return ln.Addr().String()
}
