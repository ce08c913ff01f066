package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/upstream"
	"repro/internal/workload"
	"repro/internal/xj"
	"repro/internal/xmldom"
)

// TestPooledReuseRaceSmoke hammers the pooled hot path in the shapes
// most likely to expose a lifetime bug in buffer recycling: pipelined
// keep-alive bursts (several requests in flight on one connection),
// mixed use cases churning the shared pools from many connections at
// once, and slow-loris stallers holding partial headers while frames
// recycle around them. The XJ connections assert byte-exact response
// bodies against an off-path DOM translation — a recycled frame or
// response buffer overwritten while its response is still being written
// shows up here as corrupt JSON even when the race detector's sampling
// misses the unsynchronized access. Each pipelines different messages back
// to back, in place and forwarded through an echoing backend, because
// every translation on a connection is rendered into the same
// connection-owned buffer: one overwritten before its response (or its
// forward) is written shows up as the next message's JSON. The forwarded
// connections do the same for relayed upstream bodies.
func TestPooledReuseRaceSmoke(t *testing.T) {
	srv := startServer(t, Config{MaxInflight: 20, IdleTimeout: 2 * time.Second})
	addr := srv.Addr().String()

	// Expected XJ translations, computed with xmldom.Parse (a fresh,
	// unpooled parser over a copy) so the oracle shares no pooled state
	// with the server under test.
	const pool = 8
	expected := make([][]byte, pool)
	for i := range expected {
		doc, err := xmldom.Parse(workload.SOAPMessage(i))
		if err != nil {
			t.Fatal(err)
		}
		if expected[i], err = xj.Translate(doc); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Slow-loris stallers: park half-written headers on live connections
	// while the pools churn, then vanish.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				fail("loris dial: %v", err)
				return
			}
			defer c.Close()
			if _, err := c.Write([]byte("POST /service/XJ HTTP/1.1\r\nContent-Le")); err != nil {
				fail("loris write: %v", err)
				return
			}
			time.Sleep(300 * time.Millisecond)
		}()
	}

	// Pipelined XJ connections: bursts of three requests written
	// back-to-back, responses checked byte-for-byte in order.
	const depth, rounds = 3, 25
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				fail("xj dial: %v", err)
				return
			}
			defer c.Close()
			br := bufio.NewReaderSize(c, 32<<10)
			var batch []byte
			for round := 0; round < rounds; round++ {
				var idx [depth]int
				batch = batch[:0]
				for k := 0; k < depth; k++ {
					idx[k] = (g + round*depth + k) % pool
					batch = append(batch, workload.HTTPRequest(idx[k], workload.XJ)...)
				}
				if _, err := c.Write(batch); err != nil {
					fail("xj conn %d write: %v", g, err)
					return
				}
				for k := 0; k < depth; k++ {
					resp, err := (&Client{br: br}).recv()
					if err != nil {
						fail("xj conn %d round %d: %v", g, round, err)
						return
					}
					if resp.Status != 200 || resp.Outcome != "translated" {
						fail("xj conn %d round %d: status=%d outcome=%q", g, round, resp.Status, resp.Outcome)
						return
					}
					if !bytes.Equal(resp.Body, expected[idx[k]]) {
						fail("xj conn %d round %d msg %d: corrupt body\n got %q\nwant %q",
							g, round, idx[k], resp.Body, expected[idx[k]])
						return
					}
				}
			}
		}(g)
	}

	// Forwarded XJ pairs: two different messages pipelined per round to a
	// gateway whose backend echoes what it was sent, so the body relayed
	// back is the translation the gateway forwarded.
	echo := startEchoBackend(t)
	xjFwd := startServer(t, Config{MaxInflight: 20, IdleTimeout: 2 * time.Second,
		Upstream: upstream.Config{Order: echo, Error: echo}}).Addr().String()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := net.Dial("tcp", xjFwd)
			if err != nil {
				fail("xj fwd dial: %v", err)
				return
			}
			defer c.Close()
			br := bufio.NewReaderSize(c, 32<<10)
			for round := 0; round < rounds; round++ {
				idx := [2]int{(g + round) % pool, (g + round + 1) % pool}
				batch := append(workload.HTTPRequest(idx[0], workload.XJ), workload.HTTPRequest(idx[1], workload.XJ)...)
				if _, err := c.Write(batch); err != nil {
					fail("xj fwd conn %d write: %v", g, err)
					return
				}
				for _, i := range idx {
					resp, err := (&Client{br: br}).recv()
					if err != nil {
						fail("xj fwd conn %d round %d: %v", g, round, err)
						return
					}
					if resp.Status != 200 || resp.Outcome != "translated" || !bytes.Equal(resp.Body, expected[i]) {
						fail("xj fwd conn %d round %d msg %d: status=%d outcome=%q\n got %q\nwant %q",
							g, round, i, resp.Status, resp.Outcome, resp.Body, expected[i])
						return
					}
				}
			}
		}(g)
	}

	// Forwarded bursts: a second gateway relays pipelined CBR/SV/XJ to two
	// in-process backends whose acks differ in size, so relayed bodies of
	// both routes churn through respBufPool together and ride the
	// connections' writev vectors. A body buffer recycled, or a vector
	// reused, while its response is still being written shows up as a
	// malformed ack, an ack from the other backend, or a wrong length.
	respBytes := map[string]int{"order": 300, "error": 1500}
	fwd := startServer(t, Config{MaxInflight: 20, IdleTimeout: 2 * time.Second, Upstream: upstream.Config{
		Order: startBackend(t, upstream.BackendConfig{Name: "order", RespBytes: respBytes["order"]}).Addr().String(),
		Error: startBackend(t, upstream.BackendConfig{Name: "error", RespBytes: respBytes["error"]}).Addr().String(),
	}}).Addr().String()
	fwdUCs := [...]workload.UseCase{workload.CBR, workload.SV, workload.XJ}
	var errorRouted atomic.Int64 // CBR's non-matches: the cross-route case must occur
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := net.Dial("tcp", fwd)
			if err != nil {
				fail("fwd dial: %v", err)
				return
			}
			defer c.Close()
			br := bufio.NewReaderSize(c, 32<<10)
			var batch []byte
			for round := 0; round < rounds; round++ {
				batch = batch[:0]
				for k := 0; k < depth; k++ {
					i := g + round*depth + k
					batch = append(batch, workload.HTTPRequest(i%pool, fwdUCs[i%len(fwdUCs)])...)
				}
				if _, err := c.Write(batch); err != nil {
					fail("fwd conn %d write: %v", g, err)
					return
				}
				for k := 0; k < depth; k++ {
					route, err := checkRelayed(br, respBytes)
					if err != nil {
						fail("fwd conn %d round %d: %v", g, round, err)
						return
					}
					if route == "error" {
						errorRouted.Add(1)
					}
				}
			}
		}(g)
	}

	// Mixed-use-case churn across additional connections, so frames and
	// response buffers of different sizes interleave in the same pools.
	for _, uc := range []workload.UseCase{workload.FR, workload.CBR, workload.SV, workload.DPI} {
		wg.Add(1)
		go func(uc workload.UseCase) {
			defer wg.Done()
			if rep := drive(LoadConfig{Addr: addr, UseCase: uc}, 3, 150); rep.OK != 150 {
				fail("%s load: ok=%d of 150 (%+v)", uc, rep.OK, rep)
			}
		}(uc)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if errorRouted.Load() == 0 {
		t.Error("no forwarded message took the error route")
	}
}

// checkRelayed reads one forwarded response and checks that the relayed
// ack is whole and is the routed backend's own: well-formed JSON whose
// "backend" is the X-AON-Route header, exactly Content-Length bytes, and
// the size that backend pads its acks to (appendAck: RespBytes+1).
func checkRelayed(br *bufio.Reader, respBytes map[string]int) (route string, err error) {
	var clen string
	h, err := httpmsg.ReadResponseHead(br, func(name, val []byte) {
		switch {
		case bytes.EqualFold(name, []byte(RouteHeader)):
			route = string(val)
		case bytes.EqualFold(name, []byte("Content-Length")):
			clen = string(val)
		}
	})
	if err != nil {
		return route, err
	}
	body := make([]byte, h.ContentLength)
	if _, err := io.ReadFull(br, body); err != nil {
		return route, err
	}
	if h.Status != 200 {
		return route, fmt.Errorf("status %d: %s", h.Status, body)
	}
	var ack struct {
		Backend string `json:"backend"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return route, fmt.Errorf("malformed ack on route %q: %v\n%s", route, err, body)
	}
	if ack.Backend != route {
		return route, fmt.Errorf("ack from %q relayed on route %q", ack.Backend, route)
	}
	if strconv.Itoa(len(body)) != clen || len(body) != respBytes[route]+1 {
		return route, fmt.Errorf("route %q: %d-byte ack, Content-Length %s, want %d", route, len(body), clen, respBytes[route]+1)
	}
	return route, nil
}

// startEchoBackend stands up a backend that answers every POST with 200
// and the body it received, so a test can see exactly what the gateway
// forwarded. It stops with the test.
func startEchoBackend(t *testing.T) string {
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
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				var frame []byte
				for {
					raw, err := httpmsg.ReadRequest(br, 1<<20, frame[:0])
					frame = raw
					if err != nil {
						return
					}
					var req httpmsg.Request
					if httpmsg.ParseRequestInto(raw, &req) != nil {
						return
					}
					if _, err := c.Write(httpmsg.FormatResponse(&httpmsg.Response{Status: 200,
						Headers: []httpmsg.Header{{Name: "Content-Type", Value: "application/json"}}, Body: req.Body})); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}
