package campaign

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/session"
)

// Node roles a recorder reads. Both publish gateway.Snapshot's keys on
// /stats for what they both count; the role orders and labels rows.
const (
	RoleGateway = "gateway"
	roleBackend = "backend"
)

// recordNode is one node a recorder reads.
type recordNode struct {
	// Key names the node in rows and reports, "role/id" (e.g.
	// "gateway/gw0").
	Key  string
	Role string
	// Addr is the node's control-plane address (host:port).
	Addr string
}

// Row is one sample row of session.jsonl: a node's windowed sample,
// tagged with the phase current when it was read.
type Row struct {
	Type  string `json:"type"` // "sample"; the event log's other rows are "phase-start" and "phase-end"
	Phase string `json:"phase"`
	Node  string `json:"node"`
	Role  string `json:"role"`
	// TMS is the node's own clock at the read, in milliseconds: its
	// /stats uptime, monotonic and node-local — comparing TMS across
	// nodes compares clocks, not events.
	TMS int64 `json:"t_ms"`
	// RelMS is TMS minus the node's first TMS: each node's axis advances
	// with its own monotonic clock from a common zero, so cross-node
	// alignment never depends on wall clocks agreeing.
	RelMS  int64          `json:"rel_ms"`
	Sample session.Sample `json:"sample"`
}

// recorder is the one recorder of a run's nodes. It reads each node's
// cumulative /stats once per tick and once at every phase boundary,
// windows each node with one session.Windower, tags each row with the
// current phase, and writes one file, session.jsonl: the phase events
// and every row. A read whose clock did not move since the node's
// previous row lands no row.
//
// Run records the whole topology with it, takes the phase boundary
// reads, and cuts each phase's per-node windows from them.
type recorder struct {
	nodes     []recordNode // gateways first, then by key
	logf      func(string, ...any)
	jsonl     *session.JSONL // nil: no artifacts
	artifacts []string
	stopTicks func() // nil until start

	win session.Windower

	// mu is held across a whole read — every node read and its row
	// landed — and across a phase switch, so a row's phase tag and the
	// width it was read at agree.
	mu    sync.Mutex
	phase string
	epoch map[string]int64 // node → first landed TMS
	last  map[string]int64 // node → last landed TMS
	rows  int
	err   error // first artifact write failure
}

// newRecorder builds a recorder over nodes. With dir set it creates
// dir/session.jsonl (Run makes dir); with dir empty it records no
// artifacts and only serves the phase windows. logf receives read
// failures (nil = silent). Nothing is read until start or a phase.
func newRecorder(dir string, nodes []recordNode, logf func(string, ...any)) (*recorder, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &recorder{
		nodes: append([]recordNode(nil), nodes...),
		logf:  logf,
		epoch: map[string]int64{},
		last:  map[string]int64{},
	}
	sort.SliceStable(r.nodes, func(i, j int) bool {
		if gi, gj := r.nodes[i].Role == RoleGateway, r.nodes[j].Role == RoleGateway; gi != gj {
			return gi
		}
		return r.nodes[i].Key < r.nodes[j].Key
	})
	if dir == "" {
		return r, nil
	}
	r.artifacts = []string{filepath.Join(dir, "session.jsonl")}
	jf, err := session.CreateJSONL(r.artifacts[0])
	if err != nil {
		return nil, fmt.Errorf("campaign: recorder: %w", err)
	}
	r.jsonl = jf
	return r, nil
}

// start reads every node once per interval until close. Run starts it at
// the spec's sample_interval_ms.
func (r *recorder) start(interval time.Duration) {
	r.stopTicks = session.Every(interval, r.tick)
}

// close stops the ticks and closes the artifacts; it returns the first
// write failure.
func (r *recorder) close() error {
	if r.stopTicks != nil {
		r.stopTicks()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jsonl == nil {
		return r.err
	}
	return errors.Join(r.err, r.jsonl.Close())
}

// tick reads every node once.
func (r *recorder) tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		if cum, err := r.read(n); err == nil {
			r.land(n, cum)
		}
	}
}

// read takes one cumulative reading of n's /stats. Gateways and
// backends publish what they both count under the same keys, so every
// node decodes into a gateway.Snapshot; what a backend does not publish
// (shed, counters, workers) reads zero. A node that fails to answer is
// logged, not fatal: it may be mid-start or mid-stop, and the campaign's
// own reads and the nodes' exit statuses own liveness.
func (r *recorder) read(n recordNode) (session.Sample, error) {
	snap, err := gateway.FetchStats(n.Addr, scrapeTimeout)
	if err != nil {
		r.logf("record: %s: %v", n.Key, err)
		return session.Sample{}, err
	}
	return snap.Sample(), nil
}

// land windows one cumulative reading of n and writes its row, unless
// n's clock reads what it read at n's previous row. The first row of a
// node pins its epoch. Callers hold mu.
func (r *recorder) land(n recordNode, cum session.Sample) {
	if last, ok := r.last[n.Key]; ok && last == cum.TMS {
		return
	}
	if _, ok := r.epoch[n.Key]; !ok {
		r.epoch[n.Key] = cum.TMS
	}
	r.last[n.Key] = cum.TMS
	row := Row{Type: "sample", Phase: r.phase, Node: n.Key, Role: n.Role, TMS: cum.TMS,
		RelMS: cum.TMS - r.epoch[n.Key], Sample: r.win.Window(n.Key, cum)}
	r.rows++
	if r.jsonl == nil {
		return
	}
	r.keep(r.jsonl.Write(row))
}

// event appends one phase event to the session JSONL.
func (r *recorder) event(ev map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jsonl != nil {
		r.keep(r.jsonl.Write(ev))
	}
}

// keep records the first write failure; a failed write loses that row,
// not the run.
func (r *recorder) keep(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// switchPhase sets the width and the rows' phase tag together.
func (r *recorder) switchPhase(phase string, procs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	runtime.GOMAXPROCS(procs)
	r.phase = phase
}

// boundary takes a phase boundary's reads: gw is the campaign's own read
// of its gateway at addr, and every other node is read here. Each lands
// a row; boundary returns the cumulative readings by node key, and the
// gateway's error if its read failed.
func (r *recorder) boundary(addr string, gw func() (session.Sample, error)) (map[string]session.Sample, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, err := gw()
	if err != nil {
		return nil, err
	}
	reads := map[string]session.Sample{}
	for _, n := range r.nodes {
		cum := g
		if n.Addr != addr {
			if cum, err = r.read(n); err != nil {
				continue
			}
		}
		r.land(n, cum)
		reads[n.Key] = cum
	}
	return reads, nil
}

// rowCount is the number of rows landed so far.
func (r *recorder) rowCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows
}

// windows cuts each node's phase window from its start and end reads:
// the campaign's gateway at addr first, then the other nodes in
// recording order (gateways first). A node missing either read has none.
func (r *recorder) windows(addr string, start, end map[string]session.Sample) []NodeWindow {
	var out []NodeWindow
	for _, n := range r.nodes {
		s, ok := start[n.Key]
		e, ok2 := end[n.Key]
		if !ok || !ok2 {
			continue
		}
		w := NodeWindow{Node: n.Key, Role: n.Role, Sample: span(s, e)}
		if n.Addr == addr {
			out = slices.Insert(out, 0, w)
		} else {
			out = append(out, w)
		}
	}
	return out
}

// span is the one window between two cumulative readings of a node.
func span(start, end session.Sample) session.Sample {
	var w session.Windower
	w.Window("", start)
	return w.Window("", end)
}
