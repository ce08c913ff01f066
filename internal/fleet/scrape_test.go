package fleet

import (
	"bufio"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gateway"
	"repro/internal/httpmsg"
)

// fakeNode is a control plane the test scripts: GET /stats answers the
// current snapshot — a backend's stats when backend is set — and advances
// the node's clock by 1/128 s (exact in binary, so every read's t_ms is
// distinct), /traces whatever tracesStatus says,
// anything else 404. Hits are counted per path.
type fakeNode struct {
	addr string

	mu           sync.Mutex
	backend      bool
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
	var req httpmsg.Request
	if httpmsg.ParseRequestInto(raw, &req) != nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hits[req.Target]++
	switch req.Target {
	case "/stats":
		f.snap.UptimeSec += 1.0 / 128
		if f.backend {
			c.Write(httpmsg.JSONResponse(200, map[string]any{"uptime_sec": f.snap.UptimeSec, "messages": f.snap.Messages}))
		} else {
			c.Write(httpmsg.JSONResponse(200, f.snap))
		}
	case "/traces":
		c.Write(httpmsg.JSONResponse(f.tracesStatus, map[string]string{"error": "scripted"}))
	default:
		c.Write(httpmsg.JSONResponse(404, map[string]string{"error": "not found"}))
	}
}

func (f *fakeNode) hit(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[path]
}

// TestScraperAgainstFakeControlPlane walks the trace plane's pull
// against scripted nodes: the /traces 404 memo (a node without tracing
// is asked once), and a 500 that is an error, with its body, every time.
func TestScraperAgainstFakeControlPlane(t *testing.T) {
	node := startFakeNode(t, 404)
	n := &Node{Role: roleGateway, ID: "gw0", Addr: node.addr}
	tp := &tracePuller{traces: newTraceStore(nil)}
	for i := 0; i < 5; i++ {
		if err := tp.pull(n); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
	if got := node.hit("/traces"); got != 1 {
		t.Errorf("/traces asked %d times after a 404, want 1 (memoised)", got)
	}
	if got := node.hit("/stats"); got != 0 {
		t.Errorf("/stats read %d times by the trace plane, want 0: samples are the recorder's", got)
	}

	broken := startFakeNode(t, 500)
	bn := &Node{Role: roleGateway, ID: "gw1", Addr: broken.addr}
	for i := 1; i <= 2; i++ {
		err := tp.pull(bn)
		if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "scripted") {
			t.Fatalf("pull %d of a node whose /traces is broken: err=%v, want the 500 and its body", i, err)
		}
		if got := broken.hit("/traces"); got != i {
			t.Errorf("/traces asked %d times after %d pulls: a 500 must not be memoised", got, i)
		}
	}
}

// TestFleetReadsEachNodeOncePerTick: in a fleet campaign, the one
// recorder reads every node's /stats once per tick and once per phase
// boundary — the gateway's boundary reads being the campaign's own — so
// beside its readiness probe (and, for the gateway, the campaign's
// pre-flight) each read is one row, and the gateway has exactly as many
// rows as the backend.
func TestFleetReadsEachNodeOncePerTick(t *testing.T) {
	gw := startFakeNode(t, 404)
	be := startFakeNode(t, 404)
	be.backend = true
	cfg := &Config{
		OutDir:           t.TempDir(),
		ScrapeIntervalMS: 20,
		Nodes: []NodeConfig{
			{Role: roleBackend, ID: "b0", Addr: be.addr, Attach: true},
			{Role: roleGateway, ID: "gw0", Addr: gw.addr, Attach: true},
		},
		Campaign: &campaign.Spec{Phases: []campaign.Phase{
			{Name: "p1", DurationMS: 150, Conns: 1},
			{Name: "p2", DurationMS: 150, Conns: 1},
		}},
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co.Logf = t.Logf
	if err := co.Start(); err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()
	if err := co.RunCampaign(); err != nil {
		t.Fatal(err)
	}
	if err := co.Finish(); err != nil {
		t.Fatal(err)
	}

	rows := map[string]int{}
	for _, row := range sampleRows(t, filepath.Join(cfg.OutDir, "session.jsonl")) {
		rows[row.Node]++
	}
	gwRows, beRows := rows["gateway/gw0"], rows["backend/b0"]
	if beRows <= 4 {
		t.Fatalf("backend has %d rows, want its 4 boundary reads and some ticks", beRows)
	}
	if gwRows != beRows {
		t.Errorf("gateway has %d rows, backend %d: want one read of each per tick and boundary", gwRows, beRows)
	}
	if got := gw.hit("/stats"); got != 2+gwRows {
		t.Errorf("gateway /stats read %d times, want %d: the probe, the pre-flight and one per row", got, 2+gwRows)
	}
	if got := be.hit("/stats"); got != 1+beRows {
		t.Errorf("backend /stats read %d times, want %d: the probe and one per row", got, 1+beRows)
	}
}
