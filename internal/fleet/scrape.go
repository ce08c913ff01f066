package fleet

import (
	"sync"

	"repro/internal/dtrace"
	"repro/internal/gateway"
)

// tracePuller pulls each node's kept spans over the one
// control-plane client (gateway.GetJSON) into the fleet's cross-node
// span store. Samples are the campaign recorder's job; this is the trace
// plane's.
type tracePuller struct {
	traces   *TraceStore
	noTraces sync.Map // node key → /traces answered 404 (tracing off)
}

// pull folds one node's kept spans into the store. The rings are
// cumulative, so re-reads dedup in the store. A node without tracing
// enabled answers 404 once and is remembered as trace-less — an attached
// node running an older build or without -trace must not spam the error
// log every tick.
func (tp *tracePuller) pull(n *Node) error {
	if _, skip := tp.noTraces.Load(n.Key()); skip {
		return nil
	}
	var tr dtrace.TracesResponse
	err := gateway.GetJSON(dialable(n.Addr), "/traces", probeTimeout, &tr)
	if gateway.IsNotFound(err) {
		tp.noTraces.Store(n.Key(), true)
		return nil
	}
	if err != nil {
		return err
	}
	for _, t := range tr.Traces {
		tp.traces.AddSpans(t.Spans)
	}
	return nil
}
