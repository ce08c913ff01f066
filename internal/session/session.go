// Package session records VTune-style sampling sessions for the live
// gateway. The gateway publishes cumulative state on GET /stats —
// message and byte counters, latency histograms and, with -counters,
// scaled event counts since its counter groups opened — and every reader
// cuts its own timeline from that one source with a Windower, at its own
// interval: the campaign recorder (every node of an aoncamp topology, or
// aonsim -exp live's gateway).
// Where one /stats read shows *that* CPI differs across use cases, the
// timeline shows *when* — counter and latency values over time, per CPU —
// the raw material for the paper's CPI-over-time figures.
//
// The package owns the sample schema, the one polling loop (Every), the
// windowing rule (Windower) and the one persister (JSONL): a recording
// is one session.jsonl whose rows carry every Sample field, per-CPU
// detail included. The caller flattens whatever it observes into a
// cumulative Sample, which keeps session free of any dependency on the
// gateway.
package session

import (
	"slices"
	"sync"
	"time"

	"repro/internal/hwcount"
)

// CPUSample is one logical CPU's derived counter window inside a Sample —
// the paper's per-processor view, exposing CPI/cache/branch skew across
// CPUs instead of one process-wide average.
type CPUSample struct {
	CPU int `json:"cpu"`
	// CPI, CacheMPI, BrMPR follow the paper's Section 3.3 definitions
	// (see internal/hwcount.Derived).
	CPI           float64 `json:"cpi"`
	CacheMPI      float64 `json:"cache_mpi_pct"`
	BrMPR         float64 `json:"br_mpr_pct"`
	DerivedSource string  `json:"derived_source"` // "hw" or "model"
	// Counts are the CPU's cumulative scaled events behind a
	// hardware-sourced view, for Windower to difference; never
	// serialized.
	Counts hwcount.Counts `json:"-"`
}

// Sample is one fixed-interval observation: gateway throughput deltas
// over the window, the latency view, the derived counter metrics
// (process aggregate plus per-CPU), runtime-health gauges, and the
// upstream pool gauge when the gateway forwards.
type Sample struct {
	// TMS is the sample's time in milliseconds on the node's own clock.
	TMS int64 `json:"t_ms"`
	// WindowSec is the measurement window this sample closed.
	WindowSec float64 `json:"window_sec"`

	// Gateway deltas over the window.
	Messages   uint64  `json:"messages"`
	BytesIn    uint64  `json:"bytes_in"`
	Shed       uint64  `json:"shed"`
	MsgsPerSec float64 `json:"msgs_per_sec"`

	// Latency percentiles at sample time (cumulative histogram — the
	// bounded-memory compromise; the *timeline* of these values is still
	// time-resolved because each sample re-reads them).
	LatencyP50US uint64 `json:"latency_p50_us"`
	LatencyP99US uint64 `json:"latency_p99_us"`

	// Derived counter metrics for the window: process aggregate...
	CPI           float64 `json:"cpi"`
	CacheMPI      float64 `json:"cache_mpi_pct"`
	BrMPR         float64 `json:"br_mpr_pct"`
	DerivedSource string  `json:"derived_source"` // "hw" or "model"
	// Counts are the process's cumulative scaled events behind a
	// hardware-sourced view, for Windower to difference; never
	// serialized.
	Counts hwcount.Counts `json:"-"`
	// ...and the per-CPU skew.
	CPUs []CPUSample `json:"cpus,omitempty"`
	// GOMAXPROCS is the scheduler width the gateway ran at — its
	// parallelism, apart from the CPUs the process may run on.
	GOMAXPROCS int `json:"gomaxprocs"`

	// Runtime gauges. GCCPUPct is the window's GC share of the CPU time
	// available to the process.
	Goroutines    int     `json:"goroutines"`
	GCCPUPct      float64 `json:"gc_cpu_pct"`
	SchedLatP99US float64 `json:"sched_lat_p99_us"`
	// GCCPUSec and TotalCPUSec are the cumulative GC and available CPU
	// seconds behind GCCPUPct, for Windower to difference; never
	// serialized.
	GCCPUSec    float64 `json:"-"`
	TotalCPUSec float64 `json:"-"`

	// UpstreamIdle is the upstream pools' idle-connection gauge (zero
	// when the gateway answers in place).
	UpstreamIdle int `json:"upstream_idle_conns,omitempty"`
}

// Every calls fn once per interval from a goroutine of its own until the
// returned stop is called. stop joins that goroutine — after it returns,
// fn will never be called again — and is idempotent. It is the one
// polling loop: the campaign recorder's ticks and its trace plane's /traces
// pulls.
func Every(interval time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// Windower turns successive cumulative observations of a node into
// windowed samples — the one place a measurement window is cut. Each
// reader keeps its own, so readers at different cadences each get
// exactly their own spans from the same cumulative source. Safe for
// concurrent use.
type Windower struct {
	mu   sync.Mutex
	prev map[string]Sample // key → last cumulative observation
}

// Window takes a sample whose Messages, BytesIn, Shed and Counts hold
// key's cumulative counters and returns it with those differenced
// against the previous observation of key: WindowSec and MsgsPerSec
// come from the TMS step, a hardware-sourced CPI, cache-MPI and BrMPR
// (process and per CPU) are derived from the counts' delta, and GCCPUPct
// from the GC and total CPU seconds' deltas. A window that retired no
// instructions keeps the view derived from the totals, so ratios never
// read zero just because the reader raced the load, and so does one
// with no CPU time for the GC share; model-sourced views pass through
// unchanged.
//
// The first observation of a key lands as a zero-window sample that only
// primes the state; so does one whose clock did not advance or whose
// hardware-sourced process counts went backwards — a restarted node —
// which re-primes. A message counter that went backwards yields 0, not a
// wrap.
func (w *Windower) Window(key string, cum Sample) Sample {
	w.mu.Lock()
	if w.prev == nil {
		w.prev = map[string]Sample{}
	}
	p, ok := w.prev[key]
	w.prev[key] = cum
	w.mu.Unlock()

	s := cum
	s.Messages, s.BytesIn, s.Shed = 0, 0, 0
	restarted := cum.DerivedSource == "hw" && p.DerivedSource == "hw" && backwards(cum.Counts, p.Counts)
	if !ok || cum.TMS <= p.TMS || restarted {
		return s
	}
	s.WindowSec = float64(cum.TMS-p.TMS) / 1000
	s.Messages = Delta(cum.Messages, p.Messages)
	s.BytesIn = Delta(cum.BytesIn, p.BytesIn)
	s.Shed = Delta(cum.Shed, p.Shed)
	s.MsgsPerSec = float64(s.Messages) / s.WindowSec
	if cpu := cum.TotalCPUSec - p.TotalCPUSec; cpu > 0 {
		s.GCCPUPct = 100 * (cum.GCCPUSec - p.GCCPUSec) / cpu
	}
	if d, ok := windowOf(cum.DerivedSource, cum.Counts, p.DerivedSource, p.Counts); ok {
		s.CPI, s.CacheMPI, s.BrMPR = d.CPI, d.CacheMPI, d.BrMPR
	}
	if len(cum.CPUs) == len(p.CPUs) {
		s.CPUs = slices.Clone(cum.CPUs)
		for i := range s.CPUs {
			c, pc := &s.CPUs[i], p.CPUs[i]
			if c.CPU != pc.CPU {
				continue
			}
			if d, ok := windowOf(c.DerivedSource, c.Counts, pc.DerivedSource, pc.Counts); ok {
				c.CPI, c.CacheMPI, c.BrMPR = d.CPI, d.CacheMPI, d.BrMPR
			}
		}
	}
	return s
}

// windowOf derives a window from two hardware-sourced cumulative
// readings; false leaves the caller's totals-derived (or model) view:
// either side not hardware-sourced, counts that went backwards, or no
// instructions retired in between.
func windowOf(src string, cur hwcount.Counts, prevSrc string, prev hwcount.Counts) (hwcount.Derived, bool) {
	if src != "hw" || prevSrc != "hw" || backwards(cur, prev) {
		return hwcount.Derived{}, false
	}
	d := cur.Sub(prev)
	if d.Get(hwcount.Instructions) == 0 {
		return hwcount.Derived{}, false
	}
	return hwcount.Derive(d), true
}

// backwards reports whether any event count fell from prev to cur —
// counter groups reopened, so the two readings share no epoch.
func backwards(cur, prev hwcount.Counts) bool {
	for e := range cur {
		if cur[e] < prev[e] {
			return true
		}
	}
	return false
}

// Delta is a cumulative counter's growth from prev to cur: 0, not a
// wrap, when it went backwards (the node restarted in between).
func Delta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}
