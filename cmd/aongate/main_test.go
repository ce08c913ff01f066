package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/upstream"
	"repro/internal/workload"
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

// freeAddr returns a loopback address free at the time of the call.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestGateForwardsServesPprofAndDrains runs aongate in-process with
// -order/-error pointing at two live backends and -pprof on: /stats
// carries the upstream section with both backends, the pprof listener
// serves the profile index, and closing the stop channel drains the
// gateway and prints its final snapshot JSON on stdout, counting the
// messages it answered.
func TestGateForwardsServesPprofAndDrains(t *testing.T) {
	var backs []string
	for _, name := range []string{"order", "error"} {
		b, err := upstream.StartBackend("127.0.0.1:0", upstream.BackendConfig{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		backs = append(backs, b.Addr().String())
	}
	addr, pprofAddr := freeAddr(t), freeAddr(t)
	var stdout bytes.Buffer
	var stderr lockedBuffer
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-order", backs[0], "-error", backs[1], "-pprof", pprofAddr}, &stdout, &stderr, stop)
	}()
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
			<-done
		}
	}()

	// Ready once /stats answers; then one CBR message per route.
	var snap gateway.Snapshot
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err := gateway.GetJSON(addr, "/stats", time.Second, &snap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("aongate never answered /stats:\n%s", stderr.String())
		}
	}
	cl, err := gateway.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		resp, err := cl.Do(workload.HTTPRequest(i, workload.CBR), 5*time.Second)
		if err != nil || resp.Status != 200 {
			t.Fatalf("CBR message %d: resp=%+v err=%v", i, resp, err)
		}
	}
	cl.Close()

	if err := gateway.GetJSON(addr, "/stats", 5*time.Second, &snap); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"order", "error"} {
		if up, ok := snap.Upstream[route]; !ok || up.Forwarded != 1 {
			t.Errorf("/stats upstream %q = %+v (present %v), want one forward", route, up, ok)
		}
	}

	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/pprof/ on the -pprof port: status %d", resp.StatusCode)
	}

	close(stop)
	if code := <-done; code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	var final gateway.Snapshot
	if err := json.Unmarshal(stdout.Bytes(), &final); err != nil {
		t.Fatalf("stdout is not the final snapshot JSON: %v\n%s", err, stdout.String())
	}
	if final.Messages != 2 || final.Upstream["order"].Forwarded != 1 {
		t.Fatalf("final snapshot: messages %d, order forwards %d; want 2 and 1", final.Messages, final.Upstream["order"].Forwarded)
	}
}
