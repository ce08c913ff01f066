package gateway

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/httpmsg"
	"repro/internal/workload"
)

// drive posts exactly n of cfg's pooled requests over conns keep-alive
// connections, closed loop, and returns their accounting: the outcome
// counts and the latency of the 200 answers. As the sender set does,
// cfg.TraceEvery > 0 samples every TraceEvery-th request — counted
// across connections, so exactly ceil(n/TraceEvery) of them — by
// injecting an X-AON-Trace header. A connection that dies is retired
// after one net error, so a dead connection shows as a shortfall, not as
// a redial. Safe to call from any goroutine.
func drive(cfg LoadConfig, conns, n int) Report {
	set := NewSenders(cfg) // never resized: only its defaults and pool are used
	var (
		next  atomic.Int64
		hist  Hist
		mu    sync.Mutex
		total Counts
		wg    sync.WaitGroup
	)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local Counts
			defer func() {
				mu.Lock()
				total.add(&local)
				mu.Unlock()
			}()
			cl, err := Dial(cfg.Addr)
			if err != nil {
				local.NetErrors++
				return
			}
			defer cl.Close()
			var trbuf []byte
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				raw := set.pool[i%int64(len(set.pool))]
				if cfg.TraceEvery > 0 && i%int64(cfg.TraceEvery) == 0 {
					trbuf = dtrace.InjectHeader(trbuf[:0], raw, dtrace.NewID(), dtrace.NewID())
					raw = trbuf
				}
				t0 := time.Now()
				resp, err := cl.Do(raw, set.cfg.Timeout)
				if err != nil {
					local.NetErrors++
					return
				}
				local.record(resp)
				if resp.Status == 200 {
					hist.Observe(time.Since(t0))
				}
			}
		}()
	}
	wg.Wait()
	return Report{Counts: total, Latency: hist.Snapshot()}
}

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
	s := NewSenders(LoadConfig{Addr: srv.Addr().String(), UseCase: workload.FR})
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
	if rep.Latency.Count != rep.OK {
		t.Fatalf("latency count %d for %d ok", rep.Latency.Count, rep.OK)
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

// oneShotServer answers one request per connection, then closes it, and
// counts its answers.
func oneShotServer(t *testing.T) (string, *atomic.Uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var answered atomic.Uint64
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
				answered.Add(1) // before the write: a sender that counts the answer finds it counted
				c.Write(httpmsg.FormatResponse(&httpmsg.Response{
					Status:  200,
					Headers: []httpmsg.Header{{Name: "X-AON-Outcome", Value: "forwarded"}},
				}))
			}()
		}
	}()
	return ln.Addr().String(), &answered
}

// TestSendersDeadConnection: a sender whose connection the server
// closes dials again, so the set keeps its width and keeps sending;
// every answer the server wrote is counted once, and each sender counts
// at most one net error per answer. The tests' exact-count helper drive
// instead retires the dead connection: each of its two connections gets
// one answer, then counts one net error.
func TestSendersDeadConnection(t *testing.T) {
	addr, answered := oneShotServer(t)
	s := NewSenders(LoadConfig{Addr: addr, UseCase: workload.FR})
	s.Resize(2)
	waitFor(t, "twenty answers on fresh connections", func() bool { return answered.Load() >= 20 })
	rep := s.Stop()
	if rep.Sent != answered.Load() || rep.OK != rep.Sent || rep.NetErrors > rep.Sent || rep.NetErrors+2 < rep.Sent {
		t.Fatalf("redial: sent=%d ok=%d net_errors=%d for %d answers, want sent = ok = answers and net errors within two of sent",
			rep.Sent, rep.OK, rep.NetErrors, answered.Load())
	}

	before := answered.Load()
	if rep := drive(LoadConfig{Addr: addr, UseCase: workload.FR}, 2, 40); rep.Sent != 2 || rep.NetErrors != 2 {
		t.Fatalf("drive: sent=%d net_errors=%d, want 2/2", rep.Sent, rep.NetErrors)
	}
	if got := answered.Load() - before; got != 2 {
		t.Fatalf("drive: the server answered %d, want 2", got)
	}
}
