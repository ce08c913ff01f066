package gateway

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/runstats"
	"repro/internal/session"
)

// timelineState is the gateway side of a sampling session: the sampler
// itself, a dedicated counter view (so the timeline's 100ms windows
// never steal the /stats scrape's deltas), and the previous cumulative
// gateway counters for per-window throughput deltas. The prev fields are
// touched only from the sampler goroutine.
//
// When a flush target is configured, a second goroutine drains the ring
// to it incrementally: flushMark is the lifetime-total watermark of the
// last persisted sample, guarded by flushMu because shutdown's final
// flush and SIGUSR1's on-demand flush run on other goroutines.
type timelineState struct {
	sampler *session.Sampler
	view    *counterView

	prevMsgs  uint64
	prevBytes uint64
	prevShed  uint64

	flushMu   sync.Mutex
	flushDst  *session.Appender
	flushMark uint64
	stopFlush func() // joins the periodic flusher; nil without one
}

// startTimeline brings the sampling session up; called from Start after
// the listener exists so samples always describe a serving gateway.
func (s *Server) startTimeline() error {
	tl := &timelineState{view: newCounterView(s.counters)}
	sampler, err := session.Start(session.Config{
		Interval: s.cfg.SampleInterval,
		Capacity: s.cfg.SampleCapacity,
	}, func() session.Sample { return s.takeSample(tl) })
	if err != nil {
		return err
	}
	tl.sampler = sampler
	s.timeline = tl
	if s.cfg.TimelineFlush != nil && s.cfg.TimelineFlushInterval > 0 {
		// The periodic flusher is the crash-safe persistence path: whatever
		// the ring has seen is on disk within one flush interval, so a
		// session survives its process (the fleet coordinator's requirement
		// for nodes that restart mid-campaign).
		tl.flushDst = s.cfg.TimelineFlush
		tl.stopFlush = session.Every(s.cfg.TimelineFlushInterval, func() { s.FlushTimeline() })
	}
	return nil
}

// FlushTimeline appends every sample recorded since the previous flush
// to the configured flush target, returning how many samples it wrote.
// No-op (0, nil) without a flush target. Safe to call concurrently with
// the periodic flusher — aongate's SIGUSR1 handler calls it on demand.
func (s *Server) FlushTimeline() (int, error) {
	tl := s.timeline
	if tl == nil || tl.flushDst == nil {
		return 0, nil
	}
	tl.flushMu.Lock()
	defer tl.flushMu.Unlock()
	samples, mark := tl.sampler.Since(tl.flushMark)
	if err := tl.flushDst.Append(samples); err != nil {
		return 0, err
	}
	tl.flushMark = mark
	return len(samples), nil
}

// takeSample flattens one fixed-interval observation: gateway metric
// deltas, latency percentiles, the counter window with per-CPU skew,
// runtime gauges, and upstream pool gauges.
func (s *Server) takeSample(tl *timelineState) session.Sample {
	now := time.Now()
	smp := session.Sample{TMS: now.UnixMilli(), GOMAXPROCS: runtime.GOMAXPROCS(0)}

	msgs := s.Metrics.Messages.Load()
	bytesIn := s.Metrics.BytesIn.Load()
	shed := s.Metrics.Shed.Load()
	smp.Messages = msgs - tl.prevMsgs
	smp.BytesIn = bytesIn - tl.prevBytes
	smp.Shed = shed - tl.prevShed
	tl.prevMsgs, tl.prevBytes, tl.prevShed = msgs, bytesIn, shed

	lat := s.Metrics.Latency.Snapshot()
	smp.LatencyP50US, smp.LatencyP99US = lat.P50US, lat.P99US

	windowSec, derived, source, _, _, cpus := tl.view.window()
	smp.WindowSec = windowSec
	if windowSec > 0 {
		smp.MsgsPerSec = float64(smp.Messages) / windowSec
	}
	smp.CPI, smp.CacheMPI, smp.BrMPR = derived.CPI, derived.CacheMPI, derived.BrMPR
	smp.DerivedSource = source
	smp.CPUs = make([]session.CPUSample, len(cpus))
	for i, c := range cpus {
		smp.CPUs[i] = session.CPUSample{
			CPU:           c.CPU,
			CPI:           c.Derived.CPI,
			CacheMPI:      c.Derived.CacheMPI,
			BrMPR:         c.Derived.BrMPR,
			DerivedSource: c.DerivedSource,
		}
	}

	rt := runstats.Read()
	smp.Goroutines = rt.Goroutines
	smp.GCCPUPct = 100 * rt.GCCPUFraction
	smp.SchedLatP99US = rt.SchedLatP99US

	if s.fwd != nil {
		for _, b := range s.fwd.Snapshot() {
			smp.UpstreamIdle += b.IdleConns
		}
	}
	return smp
}

// closeTimeline stops the sampling session and joins its goroutines.
// The flusher stops first, then the sampler, then one final flush — so
// the persisted artifact carries the session's last samples.
func (s *Server) closeTimeline() {
	tl := s.timeline
	if tl == nil {
		return
	}
	if tl.stopFlush != nil {
		tl.stopFlush()
	}
	tl.sampler.Close()
	if tl.flushDst != nil {
		s.FlushTimeline()
	}
}

// TimelineInfo is the /stats "timeline" section: the session's vitals
// plus the newest sample, so one scrape shows whether the session is
// alive and what it last saw. The full ring is served by /timeline.
type TimelineInfo struct {
	IntervalMS   float64         `json:"interval_ms"`
	SamplesTotal uint64          `json:"samples_total"`
	SamplesKept  int             `json:"samples_kept"`
	Last         *session.Sample `json:"last,omitempty"`
}

func (s *Server) timelineInfo() *TimelineInfo {
	if s.timeline == nil {
		return nil
	}
	sp := s.timeline.sampler
	info := &TimelineInfo{
		IntervalMS:   float64(sp.Interval()) / float64(time.Millisecond),
		SamplesTotal: sp.Total(),
		SamplesKept:  sp.Kept(),
	}
	if last := sp.Last(1); len(last) == 1 {
		info.Last = &last[0]
	}
	return info
}

// TimelineSamples returns the most recent n recorded samples (all kept
// samples when n <= 0); nil when no session is running.
func (s *Server) TimelineSamples(n int) []session.Sample {
	if s.timeline == nil {
		return nil
	}
	return s.timeline.sampler.Last(n)
}

// WriteTimelineCSV dumps the kept timeline in the session CSV schema —
// the artifact aongate writes on SIGUSR1 and at shutdown. Returns the
// number of samples written.
func (s *Server) WriteTimelineCSV(w io.Writer) (int, error) {
	if s.timeline == nil {
		return 0, fmt.Errorf("gateway: no sampling session running")
	}
	samples := s.timeline.sampler.Last(0)
	return len(samples), session.WriteCSV(w, samples)
}

// TimelineResponse is the /timeline endpoint's JSON shape.
type TimelineResponse struct {
	IntervalMS      float64          `json:"interval_ms"`
	SamplesTotal    uint64           `json:"samples_total"`
	SamplesReturned int              `json:"samples_returned"`
	Samples         []session.Sample `json:"samples"`
}

// timelineResponse serves GET /timeline?last=N (all kept samples when
// last is absent).
func (s *Server) timelineResponse(query string) (*TimelineResponse, error) {
	if s.timeline == nil {
		return nil, fmt.Errorf("no sampling session running (enable Config.Timeline / -timeline)")
	}
	n, err := httpmsg.LastParam(query)
	if err != nil {
		return nil, err
	}
	sp := s.timeline.sampler
	samples := sp.Last(n)
	return &TimelineResponse{
		IntervalMS:      float64(sp.Interval()) / float64(time.Millisecond),
		SamplesTotal:    sp.Total(),
		SamplesReturned: len(samples),
		Samples:         samples,
	}, nil
}
