package fleet

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/gateway"
	"repro/internal/httpmsg"
)

// fakeNode is a control plane the test scripts: GET /stats answers the
// current snapshot, /traces whatever tracesStatus says, anything else
// 404. Hits are counted per path.
type fakeNode struct {
	addr string

	mu           sync.Mutex
	snap         gateway.Snapshot
	tracesStatus int
	hits         map[string]int
}

func startFakeNode(t *testing.T, tracesStatus int) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	f := &fakeNode{addr: ln.Addr().String(), tracesStatus: tracesStatus, hits: map[string]int{}}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(c)
		}
	}()
	return f
}

func (f *fakeNode) serve(c net.Conn) {
	defer c.Close()
	raw, err := httpmsg.ReadRequest(bufio.NewReader(c), 1<<20, nil)
	if err != nil {
		return
	}
	req, err := httpmsg.ParseRequest(raw)
	if err != nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hits[req.Target]++
	switch req.Target {
	case "/stats":
		c.Write(httpmsg.JSONResponse(200, f.snap))
	case "/traces":
		c.Write(httpmsg.JSONResponse(f.tracesStatus, map[string]string{"error": "scripted"}))
	default:
		c.Write(httpmsg.JSONResponse(404, map[string]string{"error": "not found"}))
	}
}

// observe sets what the node's next /stats reports.
func (f *fakeNode) observe(uptimeSec float64, messages, bytesIn, shed uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.snap.UptimeSec, f.snap.Messages, f.snap.BytesIn, f.snap.Shed = uptimeSec, messages, bytesIn, shed
	f.snap.Latency.P99US = 900
}

func (f *fakeNode) hit(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[path]
}

// TestScraperAgainstFakeControlPlane walks the one scrape path through
// everything only the e2e runs used to touch: gateways read on /stats
// alone, the zero-window priming sample, windowed deltas, a node
// restart, and the /traces 404 memo (a 500 is an error every time).
func TestScraperAgainstFakeControlPlane(t *testing.T) {
	node := startFakeNode(t, 404)
	n := &Node{Role: roleGateway, ID: "gw0", Addr: node.addr}
	m := newMerger(nil)
	sc := newScraper(m, 0)
	sc.traces = newTraceStore(nil)

	for _, step := range []struct {
		uptime                float64
		messages, bytes, shed uint64
		window, rate          float64
		dMsgs, dBytes, dShed  uint64
	}{
		{uptime: 10, messages: 1000, bytes: 5000, shed: 7},                                                               // primes: zero window
		{uptime: 10.5, messages: 1200, bytes: 6000, shed: 8, window: 0.5, rate: 400, dMsgs: 200, dBytes: 1000, dShed: 1}, // deltas
		{uptime: 11.5, messages: 1300, bytes: 5500, shed: 8, window: 1, rate: 100, dMsgs: 100},                           // bytes went backwards: 0, not a wrap
		{uptime: 0.2, messages: 3, bytes: 15, shed: 0},                                                                   // restarted: re-primes
		{uptime: 1.2, messages: 53, bytes: 265, shed: 2, window: 1, rate: 50, dMsgs: 50, dBytes: 250, dShed: 2},          // deltas against the new life
	} {
		node.observe(step.uptime, step.messages, step.bytes, step.shed)
		if err := sc.scrapeNode(n); err != nil {
			t.Fatalf("uptime %v: %v", step.uptime, err)
		}
		all := m.Slice(0, m.Len())
		s := all[len(all)-1].Sample
		if s.TMS != int64(step.uptime*1000) || s.WindowSec != step.window || s.MsgsPerSec != step.rate ||
			s.Messages != step.dMsgs || s.BytesIn != step.dBytes || s.Shed != step.dShed || s.LatencyP99US != 900 {
			t.Errorf("uptime %v: sample %+v, want window %v rate %v deltas %d/%d/%d",
				step.uptime, s, step.window, step.rate, step.dMsgs, step.dBytes, step.dShed)
		}
	}
	if m.Len() != 5 {
		t.Fatalf("merger holds %d samples, want 5", m.Len())
	}
	if got := node.hit("/stats"); got != 5 {
		t.Errorf("/stats read %d times, want once per scrape (5)", got)
	}
	if got := node.hit("/timeline"); got != 0 {
		t.Errorf("/timeline probed %d times, want never: gateways are read on /stats alone", got)
	}
	if got := node.hit("/traces"); got != 1 {
		t.Errorf("/traces asked %d times after a 404, want 1 (memoised)", got)
	}

	broken := startFakeNode(t, 500)
	bn := &Node{Role: roleGateway, ID: "gw1", Addr: broken.addr}
	for i := 1; i <= 2; i++ {
		err := sc.scrapeNode(bn)
		if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "scripted") {
			t.Fatalf("scrape %d of a node whose /traces is broken: err=%v, want the 500 and its body", i, err)
		}
		if got := broken.hit("/traces"); got != i {
			t.Errorf("/traces asked %d times after %d scrapes: a 500 must not be memoised", got, i)
		}
	}
}
