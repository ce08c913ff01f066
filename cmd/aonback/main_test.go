package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/upstream"
)

// lockedBuffer is a bytes.Buffer the command may write from several
// goroutines while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestFailFirstFlagGone: the fail-first knob is POST /fault's fail_next
// now, so -fail-first is an unknown flag — exit 2 before anything
// listens, naming it.
func TestFailFirstFlagGone(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:0", "-fail-first", "1"}, &stdout, &stderr, nil); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-fail-first") {
		t.Fatalf("stdout %q, stderr %q; want nothing and a -fail-first refusal", stdout.String(), stderr.String())
	}
}

// TestBackServesStatsFaultsAndDrains runs aonback in-process: GET /stats
// answers with the endpoint's name, a POST /fault applies and is
// acknowledged, and closing the stop channel prints the final stats JSON
// on stdout, counting the fault post.
func TestBackServesStatsFaultsAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var stdout bytes.Buffer
	var stderr lockedBuffer
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-name", "error"}, &stdout, &stderr, stop)
	}()
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
			<-done
		}
	}()

	var st upstream.BackendStats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err := gateway.GetJSON(addr, "/stats", time.Second, &st); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("aonback never answered /stats:\n%s", stderr.String())
		}
	}
	if st.Name != "error" || st.Fault.Active {
		t.Fatalf("/stats = %+v, want name error and no fault", st)
	}

	rate := 0.5
	var ack upstream.FaultState
	if err := gateway.PostJSON(addr, "/fault", upstream.FaultSpec{ErrorRate: &rate}, 5*time.Second, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Active || ack.ErrorRate != 0.5 {
		t.Fatalf("POST /fault acknowledged %+v, want an active 0.5 error rate", ack)
	}

	close(stop)
	if code := <-done; code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	var final upstream.BackendStats
	if err := json.Unmarshal(stdout.Bytes(), &final); err != nil {
		t.Fatalf("stdout is not the final stats JSON: %v\n%s", err, stdout.String())
	}
	if final.Name != "error" || final.FaultPosts != 1 || final.Fault.ErrorRate != 0.5 {
		t.Fatalf("final stats: name %q, fault posts %d, error rate %v; want error, 1, 0.5",
			final.Name, final.FaultPosts, final.Fault.ErrorRate)
	}
}
