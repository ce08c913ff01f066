package fleet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/session"
	"repro/internal/upstream"
)

// scraper pulls each node's self-reported observability over the one
// control-plane client (gateway.GetJSON) and feeds it into the merger.
// Gateways serve a full sampling session on GET /timeline (preferred —
// native 100ms samples with counter views); when a gateway runs without
// -timeline, or for backends (which only expose cumulative /stats), the
// scraper synthesizes windowed samples from consecutive snapshot deltas.
type scraper struct {
	timeout time.Duration
	merger  *Merger
	windows session.Windower // node key → last cumulative /stats view

	// traces receives every node's tail-sampled spans when the fleet's
	// trace plane is on (nil otherwise).
	traces   *TraceStore
	noTraces sync.Map // node key → /traces answered 404 (tracing off)
}

func newScraper(merger *Merger, timeout time.Duration) *scraper {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &scraper{timeout: timeout, merger: merger}
}

// scrapeNode pulls one node's current view into the merger. Load nodes
// have no stats surface and are skipped.
func (sc *scraper) scrapeNode(n *Node) error {
	var err error
	switch n.Role {
	case roleGateway:
		err = sc.scrapeGateway(n)
	case roleBackend:
		err = sc.scrapeBackend(n)
	default:
		return nil
	}
	if err != nil {
		return err
	}
	return sc.scrapeTraces(n)
}

// scrapeTraces pulls a node's tail-sampled traces into the fleet's
// cross-node span store. The rings are cumulative, so re-reads dedup in
// the store. A node without tracing enabled answers 404 once and is
// remembered as trace-less — an attached node running an older build or
// without -trace must not spam the error log every tick.
func (sc *scraper) scrapeTraces(n *Node) error {
	if sc.traces == nil {
		return nil
	}
	if _, skip := sc.noTraces.Load(n.Key()); skip {
		return nil
	}
	var tr dtrace.TracesResponse
	err := gateway.GetJSON(n.Addr, "/traces", sc.timeout, &tr)
	if gateway.IsNotFound(err) {
		sc.noTraces.Store(n.Key(), true)
		return nil
	}
	if err != nil {
		return err
	}
	for _, t := range tr.Traces {
		sc.traces.AddSpans(t.Spans)
	}
	return nil
}

// scrapeAll sweeps every node once, collecting per-node errors keyed for
// diagnostics. A node that fails to answer one tick is not fatal — it
// may be mid-start or mid-stop; the campaign-level readiness and exit
// checks own liveness.
func (sc *scraper) scrapeAll(nodes []*Node) []error {
	var errs []error
	for _, n := range nodes {
		if err := sc.scrapeNode(n); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n.Key(), err))
		}
	}
	return errs
}

// scrapeGateway prefers the gateway's own sampling session: every kept
// /timeline sample lands in the merger, dedup suppressing re-reads of
// the ring. Without a timeline it falls back to /stats deltas.
func (sc *scraper) scrapeGateway(n *Node) error {
	var tr gateway.TimelineResponse
	if err := gateway.GetJSON(n.Addr, "/timeline", sc.timeout, &tr); err == nil {
		for _, s := range tr.Samples {
			sc.merger.Add(n.Key(), n.Role, s)
		}
		return nil
	}
	// No sampling session on this gateway — synthesize from /stats.
	snap, err := gateway.FetchStats(n.Addr, sc.timeout)
	if err != nil {
		return err
	}
	sc.merger.Add(n.Key(), n.Role, sc.windows.Window(n.Key(), snap.Sample()))
	return nil
}

// scrapeBackend turns the backend's cumulative /stats into windowed
// samples: requests become Messages deltas, the latency histogram
// (cumulative, like the gateway's) supplies the percentiles.
func (sc *scraper) scrapeBackend(n *Node) error {
	var bs upstream.BackendStats
	if err := gateway.GetJSON(n.Addr, "/stats", sc.timeout, &bs); err != nil {
		return err
	}
	sc.merger.Add(n.Key(), n.Role, sc.windows.Window(n.Key(), session.Sample{
		TMS:          int64(bs.UptimeSec * 1000),
		Messages:     bs.Requests,
		BytesIn:      bs.BytesIn,
		Shed:         bs.Dropped,
		LatencyP50US: bs.Latency.P50US,
		LatencyP99US: bs.Latency.P99US,
	}))
	return nil
}
