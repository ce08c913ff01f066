package gateway

import (
	"sync/atomic"
	"time"

	"repro/internal/lhist"
	"repro/internal/upstream"
	"repro/internal/verdict"
	"repro/internal/workload"
)

// Hist is the shared log2-bucketed latency histogram (internal/lhist),
// aliased here so the gateway API reads as before the upstream subsystem
// also needed it.
type Hist = lhist.Hist

// HistSnapshot is a point-in-time percentile read.
type HistSnapshot = lhist.Snapshot

// Metrics is the gateway's live counter set — the socket-world mirror of
// the simulator's aon.Stats, plus the shedding counters that only exist
// when load is real.
type Metrics struct {
	start time.Time

	Conns        atomic.Uint64 // connections accepted
	ActiveConns  atomic.Int64  // currently open connections
	Messages     atomic.Uint64 // messages fully processed and answered
	BytesIn      atomic.Uint64 // request bytes read off sockets
	BytesOut     atomic.Uint64 // response bytes written
	RoutedMatch  atomic.Uint64 // CBR: matched the routing condition
	RoutedError  atomic.Uint64 // routed to the error endpoint
	ValidationOK atomic.Uint64 // SV: schema-valid messages
	Forwarded    atomic.Uint64 // FR/DPI/AUTH: proxied to the intended endpoint
	Translated   atomic.Uint64 // XJ: messages rewritten XML→JSON
	ParseErrors  atomic.Uint64 // malformed HTTP/XML (400s)
	Shed         atomic.Uint64 // admission control rejections (503s)
	UpstreamErrs atomic.Uint64 // forwarding failures answered 502/504
	IdleTimeouts atomic.Uint64 // client connections reaped by the read deadline

	// LatencyByUC is the service-time histogram, one per use case
	// (FR/CBR/SV plus the DPI/AUTH/XJ extensions), so end-to-end latency
	// is comparable per workload — and lines up with the per-use-case
	// stage traces. Each message is observed once, here; the all-message
	// latency is their merge.
	LatencyByUC [numTraceUseCases]Hist
}

// newMetrics starts the clock.
func newMetrics() *Metrics { return &Metrics{start: time.Now()} }

// Done records one completed message with its service latency,
// attributed to the use case that processed it.
func (m *Metrics) Done(outcome verdict.Outcome, uc workload.UseCase, d time.Duration) {
	m.Messages.Add(1)
	m.LatencyByUC[uc].Observe(d)
	switch outcome {
	case verdict.OutForwarded:
		m.Forwarded.Add(1)
	case verdict.OutMatch:
		m.RoutedMatch.Add(1)
	case verdict.OutNoMatch:
		m.RoutedError.Add(1)
	case verdict.OutValid:
		m.ValidationOK.Add(1)
	case verdict.OutParseError:
		m.ParseErrors.Add(1)
	case verdict.OutTranslated:
		m.Translated.Add(1)
	}
}

// Snapshot is the JSON shape served on /stats and printed at shutdown.
// A backend's /stats publishes what it also counts under the same keys
// (uptime_sec, messages, bytes_in, latency), so the campaign recorder
// decodes every node into a Snapshot.
type Snapshot struct {
	UptimeSec    float64 `json:"uptime_sec"`
	Conns        uint64  `json:"conns"`
	ActiveConns  int64   `json:"active_conns"`
	Messages     uint64  `json:"messages"`
	BytesIn      uint64  `json:"bytes_in"`
	BytesOut     uint64  `json:"bytes_out"`
	RoutedMatch  uint64  `json:"routed_match"`
	RoutedError  uint64  `json:"routed_error"`
	ValidationOK uint64  `json:"validation_ok"`
	Forwarded    uint64  `json:"forwarded"`
	Translated   uint64  `json:"translated"`
	ParseErrors  uint64  `json:"parse_errors"`
	Shed         uint64  `json:"shed_503"`
	UpstreamErrs uint64  `json:"upstream_errors"`
	IdleTimeouts uint64  `json:"idle_timeouts"`
	// Workers is GOMAXPROCS — how many messages the gateway processes at
	// once (filled by Server.Snapshot). A campaign reads it as each
	// phase's width.
	Workers int          `json:"workers"`
	Latency HistSnapshot `json:"latency"`
	// LatencyByUseCase carries one latency histogram per use case that
	// served at least one message, keyed "FR"/"CBR"/"SV"/"DPI"/"AUTH"/"XJ".
	LatencyByUseCase map[string]HistSnapshot `json:"latency_by_usecase,omitempty"`
	// Upstream is the per-backend forwarding view (nil when the gateway
	// answers in place — no backends configured).
	Upstream map[string]upstream.Snapshot `json:"upstream,omitempty"`
	// Counters is the live measurement layer (nil when Config.Counters is
	// off): cumulative perf-counter counts and derived CPI/BrMPR in "hw"
	// mode, runtime metrics always, model-predicted derived metrics in
	// the "runtime-only" fallback, plus the per-CPU skew view.
	Counters *CountersSnapshot `json:"counters,omitempty"`
	// Stages is the per-use-case stage breakdown folded from every traced
	// request's spans (nil when tracing is off):
	// read/parse/process/forward/write percentiles.
	Stages StageSnapshot `json:"stages,omitempty"`
	// Traces summarizes the distributed-trace tail sampler (nil when
	// Config.Trace is off); the kept traces are served by GET /traces.
	Traces *TraceInfo `json:"traces,omitempty"`
}

// Snapshot reads every counter; latency merges the per-use-case histograms.
func (m *Metrics) Snapshot() Snapshot {
	var all Hist
	var byUC map[string]HistSnapshot
	for i := range m.LatencyByUC {
		all.Merge(&m.LatencyByUC[i])
		s := m.LatencyByUC[i].Snapshot()
		if s.Count == 0 {
			continue
		}
		if byUC == nil {
			byUC = map[string]HistSnapshot{}
		}
		byUC[workload.UseCase(i).String()] = s
	}
	return Snapshot{
		UptimeSec:        time.Since(m.start).Seconds(),
		Conns:            m.Conns.Load(),
		ActiveConns:      m.ActiveConns.Load(),
		Messages:         m.Messages.Load(),
		BytesIn:          m.BytesIn.Load(),
		BytesOut:         m.BytesOut.Load(),
		RoutedMatch:      m.RoutedMatch.Load(),
		RoutedError:      m.RoutedError.Load(),
		ValidationOK:     m.ValidationOK.Load(),
		Forwarded:        m.Forwarded.Load(),
		Translated:       m.Translated.Load(),
		ParseErrors:      m.ParseErrors.Load(),
		Shed:             m.Shed.Load(),
		UpstreamErrs:     m.UpstreamErrs.Load(),
		IdleTimeouts:     m.IdleTimeouts.Load(),
		Latency:          all.Snapshot(),
		LatencyByUseCase: byUC,
	}
}
