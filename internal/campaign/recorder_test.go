package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/httpmsg"
	"repro/internal/hwcount"
	"repro/internal/runstats"
	"repro/internal/session"
	"repro/internal/upstream"
	"repro/internal/workload"
)

// fakePlane is a control plane the test scripts: GET /stats answers
// stats(), GET /traces a scripted error with status traces when that is
// set, anything else a 404. Requests are counted per path.
type fakePlane struct {
	addr   string
	stats  func() any
	traces int

	mu   sync.Mutex
	hits map[string]int
}

func startFakePlane(t *testing.T, stats func() any) *fakePlane {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	f := &fakePlane{addr: ln.Addr().String(), stats: stats, hits: map[string]int{}}
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

func (f *fakePlane) serve(c net.Conn) {
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
	switch {
	case req.Target == "/stats":
		c.Write(httpmsg.JSONResponse(200, f.stats()))
		return
	case req.Target == "/traces" && f.traces != 0:
		c.Write(httpmsg.JSONResponse(f.traces, map[string]string{"error": "scripted"}))
		return
	}
	c.Write(httpmsg.JSONResponse(404, map[string]string{"error": "not found"}))
}

func (f *fakePlane) hit(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[path]
}

// readRows loads the sample rows of a recorder's session.jsonl, skipping
// the phase events.
func readRows(t *testing.T, path string) []Row {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []Row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		var row Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if row.Type == "sample" {
			rows = append(rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// newTestRecorder records nodes (keys "role/id") into a temp dir.
func newTestRecorder(t *testing.T, keys ...string) (*recorder, string) {
	t.Helper()
	var nodes []recordNode
	for _, k := range keys {
		role, _, _ := strings.Cut(k, "/")
		nodes = append(nodes, recordNode{Key: k, Role: role})
	}
	dir := t.TempDir()
	rec, err := newRecorder(dir, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec, filepath.Join(dir, "session.jsonl")
}

// landAt lands one cumulative reading of the node keyed key, as a tick
// or a boundary read does.
func landAt(rec *recorder, key string, tms int64, msgs uint64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, n := range rec.nodes {
		if n.Key == key {
			rec.land(n, session.Sample{TMS: tms, Messages: msgs})
		}
	}
}

// Two nodes whose clocks disagree by hours must still land on one
// aligned axis: each node's rel_ms counts from its own first row.
func TestRecorderSkewedClocks(t *testing.T) {
	rec, path := newTestRecorder(t, "gateway/gw0", "backend/b0")
	// Gateway clock: ~epoch 1_000_000. Backend clock: three hours ahead.
	const gwEpoch, beEpoch = int64(1_000_000), int64(1_000_000 + 3*3600*1000)
	for i := int64(0); i < 5; i++ {
		landAt(rec, "gateway/gw0", gwEpoch+i*100, 10*uint64(i))
		landAt(rec, "backend/b0", beEpoch+i*100, 10*uint64(i))
	}
	if err := rec.close(); err != nil {
		t.Fatal(err)
	}
	rows := readRows(t, path)
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	// Aligned: rows interleave by rel_ms, not cluster by absolute clock.
	var msgs uint64
	roles := map[string]int{}
	for i, row := range rows {
		wantRel := int64(i/2) * 100
		if row.RelMS != wantRel {
			t.Fatalf("row %d: rel_ms %d, want %d (skew leaked into alignment)", i, row.RelMS, wantRel)
		}
		msgs += row.Sample.Messages
		roles[row.Role]++
	}
	// Each node's windows add up to its growth: a priming row, then four
	// windows of 10 messages each.
	if msgs != 80 || roles[RoleGateway] != 5 || roles[roleBackend] != 5 {
		t.Fatalf("messages sum %d, roles %v; want 80, and 5 gateway and 5 backend rows", msgs, roles)
	}
	if e := rec.epoch["gateway/gw0"]; e != gwEpoch {
		t.Errorf("gateway epoch %d, want %d", e, gwEpoch)
	}
	if e := rec.epoch["backend/b0"]; e != beEpoch {
		t.Errorf("backend epoch %d, want %d", e, beEpoch)
	}
}

// A node that joins mid-session starts its own rel_ms axis at zero; a
// node that leaves early simply stops contributing — neither distorts
// the other's timeline.
func TestRecorderLateJoinEarlyLeave(t *testing.T) {
	rec, path := newTestRecorder(t, "backend/early", "backend/late")
	for i := int64(0); i < 10; i++ {
		landAt(rec, "backend/early", 5000+i*100, uint64(i))
	}
	// Late joiner: first row long after the early node started.
	for i := int64(0); i < 3; i++ {
		landAt(rec, "backend/late", 90_000+i*100, uint64(i))
	}
	if err := rec.close(); err != nil {
		t.Fatal(err)
	}
	per := map[string]int{}
	for _, row := range readRows(t, path) {
		per[row.Node]++
		// The late joiner's first row sits at rel_ms 0 like everyone else's.
		if row.Node == "backend/late" && row.TMS == 90_000 && row.RelMS != 0 {
			t.Fatalf("late joiner first row rel_ms %d, want 0", row.RelMS)
		}
	}
	if per["backend/early"] != 10 {
		t.Fatalf("early node kept %d rows, want 10", per["backend/early"])
	}
	if per["backend/late"] != 3 {
		t.Fatalf("late node kept %d rows, want 3", per["backend/late"])
	}
	if e, ok := rec.epoch["backend/late"]; !ok || e != 90_000 {
		t.Fatalf("late epoch %d (ok=%v), want 90000", e, ok)
	}
	if len(per) != 2 {
		t.Fatalf("nodes %v", per)
	}
}

// A read whose clock did not move since the node's previous row — two
// reads in the same uptime millisecond — lands no row.
func TestRecorderDuplicateSuppression(t *testing.T) {
	rec, path := newTestRecorder(t, "gateway/gw0", "gateway/gw1")
	landAt(rec, "gateway/gw0", 1000, 7)
	for i := 0; i < 3; i++ {
		landAt(rec, "gateway/gw0", 1000, 7)
	}
	if rec.rowCount() != 1 {
		t.Fatalf("duplicate (node, t_ms) landed: %d rows", rec.rowCount())
	}
	// Same t_ms from a different node is a distinct row.
	landAt(rec, "gateway/gw1", 1000, 7)
	if err := rec.close(); err != nil {
		t.Fatal(err)
	}
	if n, rows := rec.rowCount(), readRows(t, path); n != 2 || len(rows) != 2 {
		t.Fatalf("%d rows counted, %d written, want 2 and 2", n, len(rows))
	}
}

// The session must survive a disk round trip bit-for-bit, and landing is
// safe under concurrent readers holding the lock (-race covers the
// interleaving).
func TestRecorderJSONLRoundTrip(t *testing.T) {
	const nodes, perNode = 4, 25
	var keys []string
	for n := 0; n < nodes; n++ {
		keys = append(keys, fmt.Sprintf("backend/b%d", n))
	}
	rec, path := newTestRecorder(t, keys...)
	var wg sync.WaitGroup
	for n, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < perNode; i++ {
				tms, msgs := int64(n)*1_000_000+i*100, uint64(n*100)+uint64(i*i)
				landAt(rec, key, tms, msgs)
				landAt(rec, key, tms, msgs) // concurrent duplicate, must be dropped
			}
		}()
	}
	wg.Wait()
	if err := rec.close(); err != nil {
		t.Fatal(err)
	}
	back := readRows(t, path)
	if len(back) != nodes*perNode {
		t.Fatalf("read %d rows back, want %d", len(back), nodes*perNode)
	}
	// The file holds arrival order; compare as sets keyed by (node, t_ms)
	// and require full equality with each node's own windowing.
	want := map[string]Row{}
	for n, key := range keys {
		var w session.Windower
		for i := int64(0); i < perNode; i++ {
			tms, msgs := int64(n)*1_000_000+i*100, uint64(n*100)+uint64(i*i)
			want[key+"@"+fmt.Sprint(tms)] = Row{Type: "sample", Node: key, Role: roleBackend, TMS: tms, RelMS: i * 100,
				Sample: w.Window(key, session.Sample{TMS: tms, Messages: msgs})}
		}
	}
	for _, row := range back {
		ref, ok := want[row.Node+"@"+fmt.Sprint(row.TMS)]
		if !ok {
			t.Fatalf("read back unknown row %s@%d", row.Node, row.TMS)
		}
		if !reflect.DeepEqual(row, ref) {
			t.Fatalf("round trip mutated row %s@%d:\n got %+v\nwant %+v", row.Node, row.TMS, row, ref)
		}
	}
}

// gatewayStats is a scripted gateway /stats view.
type gatewayStats struct {
	mu   sync.Mutex
	snap gateway.Snapshot
}

func (g *gatewayStats) get() any {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.snap
}

// TestRecorderAgainstFakeControlPlane walks the recorder's read path
// against a scripted gateway: read on /stats alone, the zero-window
// priming row, windowed deltas, a counter that went backwards, and a
// node restart.
func TestRecorderAgainstFakeControlPlane(t *testing.T) {
	gs := &gatewayStats{}
	node := startFakePlane(t, gs.get)
	dir := t.TempDir()
	rec, err := newRecorder(dir, []recordNode{{Key: "gateway/gw0", Role: RoleGateway, Addr: node.addr}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.close()

	for i, step := range []struct {
		uptime                float64
		messages, bytes, shed uint64
		window, rate          float64
		dMsgs, dBytes, dShed  uint64
	}{
		{uptime: 10, messages: 1000, bytes: 5000, shed: 7},                                                               // primes: zero window
		{uptime: 10.5, messages: 1200, bytes: 6000, shed: 8, window: 0.5, rate: 400, dMsgs: 200, dBytes: 1000, dShed: 1}, // deltas
		{uptime: 11.5, messages: 1300, bytes: 5500, shed: 8, window: 1, rate: 100, dMsgs: 100},                           // bytes went backwards: 0, not a wrap
		{uptime: 0.25, messages: 3, bytes: 15, shed: 0},                                                                  // restarted: re-primes
		{uptime: 1.25, messages: 53, bytes: 265, shed: 2, window: 1, rate: 50, dMsgs: 50, dBytes: 250, dShed: 2},         // deltas against the new life
	} {
		gs.mu.Lock()
		gs.snap.UptimeSec, gs.snap.Messages, gs.snap.BytesIn, gs.snap.Shed = step.uptime, step.messages, step.bytes, step.shed
		gs.snap.Latency.P99US = 900
		gs.mu.Unlock()
		rec.tick()
		rows := readRows(t, filepath.Join(dir, "session.jsonl"))
		if len(rows) != i+1 {
			t.Fatalf("uptime %v: %d rows, want %d", step.uptime, len(rows), i+1)
		}
		s := rows[i].Sample
		if s.TMS != int64(step.uptime*1000) || s.WindowSec != step.window || s.MsgsPerSec != step.rate ||
			s.Messages != step.dMsgs || s.BytesIn != step.dBytes || s.Shed != step.dShed || s.LatencyP99US != 900 {
			t.Errorf("uptime %v: sample %+v, want window %v rate %v deltas %d/%d/%d",
				step.uptime, s, step.window, step.rate, step.dMsgs, step.dBytes, step.dShed)
		}
	}
	if got := node.hit("/stats"); got != 5 {
		t.Errorf("/stats read %d times, want once per tick (5)", got)
	}
	if got := node.hit("/timeline"); got != 0 {
		t.Errorf("/timeline probed %d times, want never: gateways are read on /stats alone", got)
	}
}

// TestPhaseWindowsFromBoundaryReads is the per-phase law: against
// scripted cumulative counts, a phase's gateway CPI is hwcount.Derive of
// the counts' growth between the phase's start and end reads, its msgs/s
// is Δmessages/Δt over the same reads, its GC share is the GC seconds'
// growth over the CPU seconds', the backend's window is cut the same way
// from reads decoded the same way, and the gateway's per-node row — the
// window the campaign row's counter columns read — comes first.
func TestPhaseWindowsFromBoundaryReads(t *testing.T) {
	var (
		mu     sync.Mutex
		served []gateway.Snapshot
		back   []map[string]any
		c      hwcount.Counts
	)
	gw := startFakePlane(t, func() any {
		mu.Lock()
		defer mu.Unlock()
		k := uint64(len(served))
		// Uneven growth, so a window cut over the wrong reads shows.
		c[hwcount.Cycles] += 3000 + 700*(k%3)
		c[hwcount.Instructions] += 2000 + 300*(k%2)
		c[hwcount.CacheRefs] += 50 + k
		c[hwcount.CacheMisses] += 5 + k%4
		c[hwcount.Branches] += 400
		c[hwcount.BranchMisses] += 3 + k%5
		total := hwcount.Derive(c)
		snap := gateway.Snapshot{
			UptimeSec: 0.125 * float64(k+1),
			Messages:  40*k + k*k,
			Counters: &gateway.CountersSnapshot{Mode: "hw", Events: c.EventsMap(), Derived: total, DerivedSource: "hw",
				Runtime: runstats.Snapshot{GCCPUSec: 0.01 * float64(k*k), TotalCPUSec: 0.25 * float64(k+1)}},
		}
		served = append(served, snap)
		return snap
	})
	be := startFakePlane(t, func() any {
		mu.Lock()
		defer mu.Unlock()
		k := len(back)
		stats := map[string]any{"uptime_sec": 50 + 0.125*float64(k), "messages": 20 * k * k}
		back = append(back, stats)
		return stats
	})

	spec := &Spec{
		SampleIntervalMS: 3_600_000, // ticking, but never within the test: only boundary reads happen
		Nodes: []NodeSpec{
			{Kind: KindAttach, Role: RoleGateway, ID: "gw0", Addr: gw.addr},
			{Kind: KindAttach, Role: roleBackend, ID: "b0", Addr: be.addr},
		},
		Phases: []Phase{
			{Name: "a", UseCase: "FR", DurationMS: 60, Conns: 1},
			{Name: "b", UseCase: "FR", DurationMS: 60, Conns: 1},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, Options{Out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	// Each node's reads: its readiness probe, then each phase's start
	// and end, each taken once.
	if len(served) != 5 || len(back) != 5 {
		t.Fatalf("gateway read %d times, backend %d; want 5 and 5", len(served), len(back))
	}
	countsOf := func(s gateway.Snapshot) hwcount.Counts {
		var out hwcount.Counts
		for e := range out {
			out[e] = s.Counters.Events[hwcount.Event(e).String()]
		}
		return out
	}
	for i, p := range res.Phases {
		start, end := served[1+2*i], served[2+2*i]
		want := hwcount.Derive(countsOf(end).Sub(countsOf(start)))
		sec := float64(int64(end.UptimeSec*1000)-int64(start.UptimeSec*1000)) / 1000
		rate := float64(end.Messages-start.Messages) / sec
		gc := 100 * (end.Counters.Runtime.GCCPUSec - start.Counters.Runtime.GCCPUSec) /
			(end.Counters.Runtime.TotalCPUSec - start.Counters.Runtime.TotalCPUSec)
		if len(p.Nodes) != 2 || p.Nodes[0].Node != "gateway/gw0" || p.Nodes[1].Node != "backend/b0" {
			t.Fatalf("phase %s: node windows %+v, want the gateway then the backend", p.Name, p.Nodes)
		}
		// The gateway's node row is the window the campaign row reads.
		g := p.gateway()
		if g.Node != "gateway/gw0" || g.CPI != want.CPI || g.CacheMPI != want.CacheMPI || g.BrMPR != want.BrMPR ||
			g.GCCPUPct != gc || g.DerivedSource != "hw" || g.MsgsPerSec != rate || g.Messages != end.Messages-start.Messages {
			t.Errorf("phase %s: gateway window %+v, want CPI %v MPI %v BrMPR %v gc%% %v from hw, %v msgs/s",
				p.Name, g.Sample, want.CPI, want.CacheMPI, want.BrMPR, gc, rate)
		}
		bs, bt := back[1+2*i], back[2+2*i]
		bsec := bt["uptime_sec"].(float64) - bs["uptime_sec"].(float64)
		bmsgs := uint64(bt["messages"].(int) - bs["messages"].(int))
		if b := p.Nodes[1]; b.Messages != bmsgs || b.MsgsPerSec != float64(bmsgs)/(float64(int64(bsec*1000))/1000) || b.DerivedSource != "" {
			t.Errorf("phase %s: backend window %+v, want %d msgs over %vs", p.Name, b.Sample, bmsgs, bsec)
		}
	}
	if text := formatReport(res); !strings.Contains(text, "fleet-total(gateways)") || !strings.Contains(text, "backend/b0") {
		t.Errorf("report lacks the per-node windows:\n%s", text)
	}
}

// artifactNames lists dir's entries, comma-joined in name order.
func artifactNames(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return strings.Join(names, ",")
}

// post sends n FR messages to addr, each on a connection of its own (a
// dropped request takes its connection with it), and returns how many
// were answered 200.
func post(t *testing.T, addr string, n int) (ok int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cl, err := gateway.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Do(workload.HTTPRequestSeeded(i, workload.FR, 256, 1), 5*time.Second)
		cl.Close()
		if err == nil && resp.Status == 200 {
			ok++
		}
	}
	return ok
}

// A backend that drops requests under a fail_next fault sheds nothing:
// its drops stay in its fault section, every row it lands has shed 0,
// and its cumulative messages are the requests it answered.
func TestRecorderBackendDropsAreNotShed(t *testing.T) {
	be := startBackend(t)
	dir := t.TempDir()
	node := recordNode{Key: "backend/b0", Role: roleBackend, Addr: be.Addr().String()}
	rec, err := newRecorder(dir, []recordNode{node}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.close()
	failNext := int64(3)
	if _, err := postFault(be.Addr().String(), upstream.FaultSpec{FailNext: &failNext}, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// Each tick lands a row: the backend's uptime clock moves between
	// them (a read in the same millisecond as the last lands none).
	tick := func() {
		time.Sleep(2 * time.Millisecond)
		rec.tick()
	}
	tick() // primes the window before any message
	answered := post(t, be.Addr().String(), 5)
	tick()
	answered += post(t, be.Addr().String(), 3)
	tick()
	if err := rec.close(); err != nil {
		t.Fatal(err)
	}
	if st := be.FaultState(); st.Dropped != 3 || answered != 5 {
		t.Fatalf("backend dropped %d and answered %d, want 3 and 5", st.Dropped, answered)
	}

	rows := readRows(t, filepath.Join(dir, "session.jsonl"))
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	var msgs uint64
	for i, row := range rows {
		if row.Sample.Shed != 0 {
			t.Errorf("row %d: shed %d, want 0: a backend's drops are not shed", i, row.Sample.Shed)
		}
		msgs += row.Sample.Messages
	}
	last, err := rec.read(node)
	if err != nil {
		t.Fatal(err)
	}
	if msgs != uint64(answered) || last.Messages != uint64(answered) || last.Shed != 0 {
		t.Fatalf("windows sum to %d messages, last cumulative read %d messages %d shed; want %d answered and 0 shed",
			msgs, last.Messages, last.Shed, answered)
	}
}

// One decode for every node: a real gateway forwarding to a real
// backend, both read by the same Recorder.read into the same sample
// fields — each node's uptime clock, its answered messages, its bytes
// and its latency.
func TestRecorderReadsGatewayAndBackendOneWay(t *testing.T) {
	be := startBackend(t)
	gw := startGateway(t, gateway.Config{UseCase: workload.FR, Upstream: upstream.Config{Order: be.Addr().String()}})
	rec, err := newRecorder("", []recordNode{
		{Key: "gateway/gw0", Role: RoleGateway, Addr: gw},
		{Key: "backend/b0", Role: roleBackend, Addr: be.Addr().String()},
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.close()
	const n = 6
	if ok := post(t, gw, n); ok != n {
		t.Fatalf("%d of %d answered", ok, n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		snap, err := gateway.FetchStats(gw, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Messages == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway counted %d messages, want %d", snap.Messages, n)
		}
	}
	for _, node := range rec.nodes {
		s, err := rec.read(node)
		if err != nil {
			t.Fatal(err)
		}
		if s.TMS <= 0 || s.Messages != n || s.Shed != 0 || s.BytesIn == 0 || s.LatencyP50US == 0 || s.LatencyP99US < s.LatencyP50US {
			t.Errorf("%s: cumulative read %+v, want a clock, %d messages, no shed, bytes and latency", node.Key, s, n)
		}
	}
}
