package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/session"
)

// The trace plane's artifacts in the run's out directory: traces.jsonl
// holds one dtrace.Span JSON object per line, every node's spans
// interleaved in pull order (dtrace.ReadSpansJSONL reads it back);
// trace-report.txt is dtrace.FormatReport over every span collected,
// joined into cross-node traces purely by trace ID, written at the end.
const (
	tracesJSONLName = "traces.jsonl"
	traceReportName = "trace-report.txt"
)

// traceStore is the run's cross-node span collector: every pull of a
// node's GET /traces lands here, deduplicated by (trace ID, span ID) —
// the tail rings are cumulative, so consecutive pulls mostly re-read
// spans the store already holds. New spans stream to the sink (the
// traces.jsonl writer) as they arrive, so a crashed run keeps its trace
// plane up to the last pull.
type traceStore struct {
	mu      sync.Mutex
	seen    map[[2]dtrace.ID]struct{}
	spans   []dtrace.Span
	sink    func(dtrace.Span) error
	sinkErr error
}

// newTraceStore builds a store; sink (may be nil) receives each new span
// exactly once, in arrival order.
func newTraceStore(sink func(dtrace.Span) error) *traceStore {
	return &traceStore{seen: map[[2]dtrace.ID]struct{}{}, sink: sink}
}

// add folds a batch of spans in, returning how many were new.
func (ts *traceStore) add(spans []dtrace.Span) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	added := 0
	for _, sp := range spans {
		key := [2]dtrace.ID{sp.TraceID, sp.SpanID}
		if _, dup := ts.seen[key]; dup {
			continue
		}
		ts.seen[key] = struct{}{}
		ts.spans = append(ts.spans, sp)
		added++
		if ts.sink != nil && ts.sinkErr == nil {
			ts.sinkErr = ts.sink(sp)
		}
	}
	return added
}

// tracePuller pulls each node's kept spans over the one control-plane
// client (gateway.GetJSON) into the store. Samples are the recorder's
// job; this is the trace plane's.
type tracePuller struct {
	traces   *traceStore
	noTraces sync.Map // node key → /traces answered 404 (tracing off)
}

// pull folds one node's kept spans into the store. The rings are
// cumulative, so re-reads dedup in the store. A node without tracing
// answers 404 once and is remembered as trace-less: an attached node
// running without -trace must not spam the log every tick.
func (tp *tracePuller) pull(n *node) error {
	if _, skip := tp.noTraces.Load(n.key); skip {
		return nil
	}
	var tr dtrace.TracesResponse
	err := gateway.GetJSON(n.addr, "/traces", probeTimeout, &tr)
	if gateway.IsNotFound(err) {
		tp.noTraces.Store(n.key, true)
		return nil
	}
	if err != nil {
		return err
	}
	for _, t := range tr.Traces {
		tp.traces.add(t.Spans)
	}
	return nil
}

// tracePlane pulls every node's spans once per interval while the run
// lasts, and at finish joins them, with the campaign's client spans,
// into trace-report.txt.
type tracePlane struct {
	dir    string
	nodes  []*node
	logf   func(string, ...any)
	puller tracePuller
	out    *session.JSONL // nil without an out directory
	stop   func()
}

// startTraces opens traces.jsonl in dir (none when dir is empty) and
// starts the pulls.
func startTraces(dir string, nodes []*node, interval time.Duration, logf func(string, ...any)) (*tracePlane, error) {
	tp := &tracePlane{dir: dir, nodes: nodes, logf: logf}
	var sink func(dtrace.Span) error
	if dir != "" {
		w, err := session.CreateJSONL(filepath.Join(dir, tracesJSONLName))
		if err != nil {
			return nil, err
		}
		tp.out = w
		sink = func(sp dtrace.Span) error { return w.Write(sp) }
	}
	tp.puller.traces = newTraceStore(sink)
	tp.stop = session.Every(interval, tp.pullAll)
	return tp, nil
}

// pullAll pulls every node once. A failed pull is logged, not fatal.
func (tp *tracePlane) pullAll() {
	for _, n := range tp.nodes {
		if err := tp.puller.pull(n); err != nil {
			tp.logf("traces: %s: %v", n.key, err)
		}
	}
}

// finish stops the pulls, takes the final one while the nodes still
// run, adds the client spans as load/client, closes traces.jsonl and
// writes the critical-path report. It returns the first write failure.
func (tp *tracePlane) finish(client []dtrace.Span) error {
	tp.stop()
	tp.pullAll()
	for i := range client {
		client[i].Node = "load/client"
	}
	store := tp.puller.traces
	store.add(client)
	if tp.out == nil {
		return nil
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	err := errors.Join(store.sinkErr, tp.out.Close())
	var report bytes.Buffer
	dtrace.FormatReport(&report, dtrace.Assemble(store.spans))
	path := filepath.Join(tp.dir, traceReportName)
	if werr := os.WriteFile(path, report.Bytes(), 0o644); werr != nil {
		err = errors.Join(err, fmt.Errorf("campaign: trace report: %w", werr))
	}
	tp.logf("traces: %d spans → %s, %s", len(store.spans), filepath.Join(tp.dir, tracesJSONLName), path)
	return err
}
