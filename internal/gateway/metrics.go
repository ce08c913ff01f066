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

// rateRing tracks per-second message completions without locks: slot
// sec%len holds the count for wall-clock second sec, lazily reset when the
// ring wraps onto a stale second.
type rateRing struct {
	slots [8]struct {
		sec atomic.Int64
		n   atomic.Uint64
	}
}

func (r *rateRing) tick(now time.Time) {
	sec := now.Unix()
	s := &r.slots[sec%int64(len(r.slots))]
	if s.sec.Load() != sec {
		if s.sec.Swap(sec) != sec {
			s.n.Store(0)
		}
	}
	s.n.Add(1)
}

// lastSecond returns the completed count for the most recent *finished*
// wall-clock second (the current second is still filling).
func (r *rateRing) lastSecond(now time.Time) uint64 {
	want := now.Unix() - 1
	s := &r.slots[want%int64(len(r.slots))]
	if s.sec.Load() != want {
		return 0
	}
	return s.n.Load()
}

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

	Latency Hist
	// LatencyByUC splits the service-time histogram per use case
	// (FR/CBR/SV plus the DPI/AUTH extensions), so end-to-end latency is
	// comparable per workload — and lines up with the per-use-case stage
	// traces.
	LatencyByUC [numTraceUseCases]Hist
	rate        rateRing
}

// newMetrics starts the clock.
func newMetrics() *Metrics { return &Metrics{start: time.Now()} }

// Done records one completed message with its service latency,
// attributed to the use case that processed it.
func (m *Metrics) Done(outcome verdict.Outcome, uc workload.UseCase, d time.Duration) {
	m.Messages.Add(1)
	m.Latency.Observe(d)
	if uc >= 0 && int(uc) < len(m.LatencyByUC) {
		m.LatencyByUC[uc].Observe(d)
	}
	m.rate.tick(time.Now())
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
	MsgsPerSec   float64 `json:"msgs_per_sec"`  // lifetime average
	LastSecMsgs  uint64  `json:"last_sec_msgs"` // most recent full second
	MbpsIn       float64 `json:"mbps_in"`       // lifetime average
	// Workers is GOMAXPROCS — how many messages the gateway processes at
	// once (filled by Server.Snapshot). Campaign and fleet scrapers seed
	// the capacity model's station width from it.
	Workers int          `json:"workers"`
	Latency HistSnapshot `json:"latency"`
	// LatencyByUseCase carries one latency histogram per use case that
	// served at least one message, keyed "FR"/"CBR"/"SV"/"DPI"/"AUTH"/"XJ".
	LatencyByUseCase map[string]HistSnapshot `json:"latency_by_usecase,omitempty"`
	// Upstream is the per-backend forwarding view (nil when the gateway
	// answers in place — no backends configured).
	Upstream map[string]upstream.Snapshot `json:"upstream,omitempty"`
	// Counters is the live measurement layer (nil when Config.Counters is
	// off): windowed perf-counter deltas and derived CPI/BrMPR in "hw"
	// mode, runtime metrics always, model-predicted derived metrics in
	// the "runtime-only" fallback, plus the per-CPU skew view.
	Counters *CountersSnapshot `json:"counters,omitempty"`
	// Stages is the per-use-case stage breakdown folded from every traced
	// request's spans (nil when tracing is off):
	// read/parse/process/forward/write percentiles.
	Stages StageSnapshot `json:"stages,omitempty"`
	// Timeline summarizes the sampling session (nil when none runs); the
	// full ring is served by GET /timeline.
	Timeline *TimelineInfo `json:"timeline,omitempty"`
	// Traces summarizes the distributed-trace tail sampler (nil when
	// Config.Trace is off); the kept traces are served by GET /traces.
	Traces *TraceInfo `json:"traces,omitempty"`
	// Capacity is the adaptive-admission control view (nil when
	// Config.Adaptive is off): the model's latest observation, prediction,
	// decision, and model-vs-measured error.
	Capacity *CapacitySnapshot `json:"capacity,omitempty"`
}

// Snapshot reads every counter.
func (m *Metrics) Snapshot() Snapshot {
	now := time.Now()
	up := now.Sub(m.start).Seconds()
	if up <= 0 {
		up = 1e-9
	}
	msgs := m.Messages.Load()
	in := m.BytesIn.Load()
	var byUC map[string]HistSnapshot
	for i := range m.LatencyByUC {
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
		UptimeSec:        up,
		Conns:            m.Conns.Load(),
		ActiveConns:      m.ActiveConns.Load(),
		Messages:         msgs,
		BytesIn:          in,
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
		MsgsPerSec:       float64(msgs) / up,
		LastSecMsgs:      m.rate.lastSecond(now),
		MbpsIn:           float64(in) * 8 / 1e6 / up,
		Latency:          m.Latency.Snapshot(),
		LatencyByUseCase: byUC,
	}
}
