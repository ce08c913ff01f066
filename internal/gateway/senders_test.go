package gateway

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/workload"
)

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSendersResizeStopLeavesNoGoroutine: the sender set follows Resize
// up and down, Stop joins every sender — nothing is sent after it
// returns — and so does a slow-loris set, the other LoopSet the campaign
// drives; once the server is shut down too the process is back at its
// goroutine baseline.
func TestSendersResizeStopLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s := NewSenders(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.FR}, true)
	for _, width := range []int{4, 1, 3, 0, 2} {
		s.Resize(width)
		waitFor(t, "the gateway to see the new width", func() bool {
			return srv.Metrics.ActiveConns.Load() == int64(width)
		})
	}
	rep := s.Stop()
	if rep.Sent == 0 || rep.OK != rep.Sent || rep.Forwarded != rep.OK || rep.NetErrors != 0 {
		t.Fatalf("accounting after Stop: %+v", rep.Counts)
	}
	if rep.Latency.Count != rep.OK || rep.BytesOut == 0 || rep.BytesIn == 0 {
		t.Fatalf("latency count %d, bytes out/in %d/%d for %d ok", rep.Latency.Count, rep.BytesOut, rep.BytesIn, rep.OK)
	}
	if got := srv.Metrics.Messages.Load(); got != rep.Sent {
		t.Fatalf("gateway answered %d, senders counted %d", got, rep.Sent)
	}

	// The loris set: each member holds a connection with half a request
	// head on it until its stop channel closes — Stop must reach members
	// parked in that wait.
	req := workload.HTTPRequest(0, workload.FR)
	loris := NewLoopSet(func(stop <-chan struct{}) {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		if _, err := c.Write(req[:len(req)/8]); err != nil {
			t.Error(err)
			return
		}
		<-stop
	})
	for _, width := range []int{3, 1, 4, 0, 2} {
		loris.Resize(width)
		waitFor(t, "the gateway to see the loris width", func() bool {
			return srv.Metrics.ActiveConns.Load() == int64(width)
		})
	}
	loris.Stop()
	waitFor(t, "the gateway to drop the loris connections", func() bool {
		return srv.Metrics.ActiveConns.Load() == 0
	})
	if got := srv.Metrics.Messages.Load(); got != rep.Sent {
		t.Fatalf("gateway answered %d after the loris set, want %d", got, rep.Sent)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "goroutines to return to the baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// oneShotServer answers one request per connection, then closes it.
func oneShotServer(t *testing.T) string {
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
				if _, err := httpmsg.ReadRequest(bufio.NewReader(c), 1<<20, nil); err != nil {
					return
				}
				c.Write(httpmsg.FormatResponse(&httpmsg.Response{
					Status:  200,
					Headers: []httpmsg.Header{{Name: "X-AON-Outcome", Value: "forwarded"}},
				}))
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSendersDeadConnection: what a sender does when the server closes
// its connection is the one policy the two callers differ in. RunLoad
// retires the connection — each of its two gets one answer, then counts
// one net error, and the run ends long before its deadline — while a
// redialling set keeps its width and keeps sending.
func TestSendersDeadConnection(t *testing.T) {
	addr := oneShotServer(t)
	start := time.Now()
	rep, err := RunLoad(LoadConfig{Addr: addr, UseCase: workload.FR, Conns: 2, Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 2 || rep.NetErrors != 2 || time.Since(start) > 10*time.Second {
		t.Fatalf("retire mode: sent=%d net_errors=%d after %v, want 2/2 at once", rep.Sent, rep.NetErrors, time.Since(start))
	}

	s := NewSenders(LoadConfig{Addr: addr, UseCase: workload.FR, Messages: 40}, true)
	s.Resize(2)
	rep = s.Wait()
	// Every claimed request either got its one answer on a fresh
	// connection or found the previous connection closed.
	if rep.Sent < 10 || rep.Sent+rep.NetErrors != 40 {
		t.Fatalf("redial mode: sent=%d net_errors=%d, want them to add up to the 40-message budget", rep.Sent, rep.NetErrors)
	}
}
