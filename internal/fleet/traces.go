package fleet

import (
	"sync"

	"repro/internal/dtrace"
)

// The trace plane's artifacts inside Config.OutDir: traces.jsonl holds
// one dtrace.Span JSON object per line, every node's spans interleaved
// in pull order (dtrace.ReadSpansJSONL reads it back); trace-report.txt
// is dtrace.FormatReport over every span collected, joined into
// cross-node traces purely by trace ID, written at Finish.
const (
	tracesJSONLName = "traces.jsonl"
	traceReportName = "trace-report.txt"
)

// TraceStore is the fleet's cross-node span collector: every scrape of a
// node's GET /traces lands here, deduplicated by (trace ID, span ID) —
// the tail rings are cumulative, so consecutive scrapes mostly re-read
// spans the store already holds. New spans stream to the sink (the
// traces.jsonl writer) as they arrive, so a crashed campaign keeps its
// trace plane up to the last scrape.
type TraceStore struct {
	mu      sync.Mutex
	seen    map[[2]dtrace.ID]struct{}
	spans   []dtrace.Span
	sink    func(dtrace.Span) error
	sinkErr error
}

// newTraceStore builds a store; sink (may be nil) receives each new span
// exactly once, in arrival order.
func newTraceStore(sink func(dtrace.Span) error) *TraceStore {
	return &TraceStore{seen: map[[2]dtrace.ID]struct{}{}, sink: sink}
}

// AddSpans folds a batch of spans in, returning how many were new.
func (ts *TraceStore) AddSpans(spans []dtrace.Span) int {
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

// Spans returns a copy of every collected span in arrival order.
func (ts *TraceStore) Spans() []dtrace.Span {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]dtrace.Span, len(ts.spans))
	copy(out, ts.spans)
	return out
}

// Len is the number of distinct spans collected.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.spans)
}

// Assemble joins the collected spans into cross-node traces.
func (ts *TraceStore) Assemble() []*dtrace.AssembledTrace {
	return dtrace.Assemble(ts.Spans())
}

// SinkErr reports the first sink failure (the campaign should stop
// rather than silently lose its trace artifact).
func (ts *TraceStore) SinkErr() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.sinkErr
}
