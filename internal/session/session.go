// Package session records VTune-style sampling sessions for the live
// gateway: a fixed-interval sampler (default 100ms, the granularity the
// paper's VTune sampling sessions ran at) snapshots the measurement
// layer into a bounded ring-buffer timeline. Where PR 3's windowed
// /stats reading shows *that* CPI differs across use cases, the timeline
// shows *when* — counter and latency values over time, per CPU — the
// raw material for the paper's CPI-over-time figures.
//
// The package is deliberately generic: the sampler owns the clock, the
// ring, and the lifecycle; the caller (the gateway) supplies a sample
// function that flattens whatever it observes — counter windows,
// throughput deltas, pool gauges — into a Sample. That keeps session
// free of any dependency on the measurement packages and reusable by
// other subsystems.
package session

import (
	"fmt"
	"sync"
	"time"
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
}

// Sample is one fixed-interval observation: gateway throughput deltas
// over the window, the latency view, the derived counter metrics
// (process aggregate plus per-CPU), runtime-health gauges, and the
// upstream pool gauge when the gateway forwards.
type Sample struct {
	// TMS is the sample's wall-clock time in Unix milliseconds.
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
	// ...and the per-CPU skew.
	CPUs []CPUSample `json:"cpus,omitempty"`
	// GOMAXPROCS is the scheduler width the gateway ran at — its
	// parallelism, and the server count a capacity model replays.
	GOMAXPROCS int `json:"gomaxprocs"`

	// Runtime gauges.
	Goroutines    int     `json:"goroutines"`
	GCCPUPct      float64 `json:"gc_cpu_pct"`
	SchedLatP99US float64 `json:"sched_lat_p99_us"`

	// UpstreamIdle is the upstream pools' idle-connection gauge (zero
	// when the gateway answers in place).
	UpstreamIdle int `json:"upstream_idle_conns,omitempty"`
}

// sampleRing is the bounded sample buffer: the newest Capacity samples win,
// older ones fall off. Safe for concurrent Add and Last.
type sampleRing struct {
	mu    sync.Mutex
	buf   []Sample
	total uint64 // lifetime samples added
}

// newRing sizes a ring; capacity <= 0 panics (the sampler validates).
func newRing(capacity int) *sampleRing {
	if capacity <= 0 {
		panic(fmt.Sprintf("session: ring capacity %d, want > 0", capacity))
	}
	return &sampleRing{buf: make([]Sample, 0, capacity)}
}

// Add appends one sample, evicting the oldest when full.
func (r *sampleRing) Add(s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = s
	}
	r.total++
}

// Last returns the most recent n samples in chronological order (all
// kept samples when n <= 0 or n exceeds what the ring holds).
func (r *sampleRing) Last(n int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := len(r.buf)
	if n <= 0 || n > kept {
		n = kept
	}
	out := make([]Sample, 0, n)
	// Oldest kept sample is at total-kept; we want the last n of the
	// kept window, i.e. indices [total-n, total).
	for i := r.total - uint64(n); i < r.total; i++ {
		out = append(out, r.buf[i%uint64(cap(r.buf))])
	}
	return out
}

// Since returns the samples whose lifetime index is >= afterTotal (i.e.
// everything added after a previous call reported newTotal == afterTotal)
// plus the ring's current lifetime total. Samples that have already been
// evicted are silently gone — the caller polled too slowly for the ring
// capacity. This is the incremental-flush primitive: a persister tracks
// the returned total as its watermark and never re-reads a sample.
func (r *sampleRing) Since(afterTotal uint64) ([]Sample, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if afterTotal > r.total {
		// Watermark from a different (restarted) ring: start over.
		afterTotal = 0
	}
	n := r.total - afterTotal
	if kept := uint64(len(r.buf)); n > kept {
		n = kept
	}
	out := make([]Sample, 0, n)
	for i := r.total - n; i < r.total; i++ {
		out = append(out, r.buf[i%uint64(cap(r.buf))])
	}
	return out, r.total
}

// Total is the lifetime sample count (including evicted ones).
func (r *sampleRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Kept is how many samples the ring currently holds.
func (r *sampleRing) Kept() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Config parameterizes a sampling session.
type Config struct {
	// Interval is the sampling period; 0 means the 100ms default (the
	// VTune sampling-session granularity). Negative is rejected.
	Interval time.Duration
	// Capacity bounds the ring; 0 means 600 samples (one minute at the
	// default interval). Negative is rejected.
	Capacity int
}

// defaultInterval is the paper-style sampling period.
const defaultInterval = 100 * time.Millisecond

// defaultCapacity keeps one minute of samples at the default interval.
const defaultCapacity = 600

// Every calls fn once per interval from a goroutine of its own until the
// returned stop is called. stop joins that goroutine — after it returns,
// fn will never be called again — and is idempotent. It is the one
// polling loop: the sampling session below, the gateway's timeline
// flusher, the campaign's /stats sampler and the fleet's scrape loop.
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

// Sampler drives one sampling session: a background goroutine calls fn
// every interval and records the result. Close stops and joins it.
type Sampler struct {
	ring     *sampleRing
	interval time.Duration
	stop     func()
}

// Start begins a session. fn is called from the sampler goroutine only,
// so it may keep unsynchronized previous-window state of its own.
func Start(cfg Config, fn func() Sample) (*Sampler, error) {
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("session: sampling interval %v, want > 0", cfg.Interval)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("session: ring capacity %d, want > 0", cfg.Capacity)
	}
	if fn == nil {
		return nil, fmt.Errorf("session: nil sample function")
	}
	if cfg.Interval == 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = defaultCapacity
	}
	s := &Sampler{ring: newRing(cfg.Capacity), interval: cfg.Interval}
	s.stop = Every(cfg.Interval, func() { s.ring.Add(fn()) })
	return s, nil
}

// Close stops the session and joins the sampler goroutine; after Close
// returns, fn will never be called again. Idempotent.
func (s *Sampler) Close() { s.stop() }

// Interval reports the sampling period in effect.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Last returns the most recent n samples in chronological order.
func (s *Sampler) Last(n int) []Sample { return s.ring.Last(n) }

// Since returns the samples recorded after a previous Since call reported
// newTotal == afterTotal, plus the new watermark. See sampleRing.Since.
func (s *Sampler) Since(afterTotal uint64) ([]Sample, uint64) { return s.ring.Since(afterTotal) }

// Total is the lifetime sample count.
func (s *Sampler) Total() uint64 { return s.ring.Total() }

// Kept is how many samples the ring currently holds.
func (s *Sampler) Kept() int { return s.ring.Kept() }

// Windower turns successive cumulative observations of a node into
// windowed samples — the scrape-side counterpart of the in-process
// sampler, shared by the campaign's /stats sampler and the fleet
// scraper. Safe for concurrent use.
type Windower struct {
	mu   sync.Mutex
	prev map[string]Sample // key → last cumulative observation
}

// Window takes a sample whose Messages, BytesIn and Shed hold key's
// cumulative counters and returns it with those differenced against the
// previous observation of key, WindowSec and MsgsPerSec filled from the
// TMS step. The first observation of a key lands as a zero-window
// sample that only primes the state (and pins the node's epoch in a
// merged session); so does one whose clock did not advance — a restarted
// node — which re-primes. A counter that went backwards yields 0, not a
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
	if ok && cum.TMS > p.TMS {
		s.WindowSec = float64(cum.TMS-p.TMS) / 1000
		s.Messages = Delta(cum.Messages, p.Messages)
		s.BytesIn = Delta(cum.BytesIn, p.BytesIn)
		s.Shed = Delta(cum.Shed, p.Shed)
		s.MsgsPerSec = float64(s.Messages) / s.WindowSec
	}
	return s
}

// Delta is a cumulative counter's growth from prev to cur: 0, not a
// wrap, when it went backwards (the node restarted in between).
func Delta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}
