package dtrace

import (
	"slices"
	"sync"
	"sync/atomic"
)

// traceRing is a bounded, mutex-guarded store of kept traces. The mutex is
// held only to copy a pre-built Trace in or slice the window out —
// no allocation, parsing, or I/O under the lock — so contention stays
// negligible next to the request work that produced the trace.
type traceRing struct {
	mu    sync.Mutex
	buf   []Trace
	next  int
	total uint64
}

// newRing makes a ring keeping the last capacity traces (min 1).
func newRing(capacity int) *traceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &traceRing{buf: make([]Trace, 0, capacity)}
}

// Add keeps tr, evicting the oldest once full.
func (r *traceRing) Add(tr Trace) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, tr)
	} else {
		r.buf[r.next] = tr
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Last returns up to n kept traces, oldest first (n<=0 means all).
// The returned slice is fresh; the Trace span slices are shared with
// the ring but never mutated after Add.
func (r *traceRing) Last(n int) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, 0, len(r.buf))
	// Chronological order: next..end wrapped before start..next.
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Kept returns how many traces were ever added (including evicted).
func (r *traceRing) Kept() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// TailConfig tunes tail-based sampling.
type TailConfig struct {
	// Capacity bounds the kept-trace ring (default 256).
	Capacity int
	// SlowOverUS always keeps traces whose root duration is at least
	// this many microseconds (default 50ms). 0 uses the default; a
	// negative value disables the slow rule.
	SlowOverUS int64
	// KeepEvery probabilistically keeps 1-in-N ordinary traces
	// (default 64). 0 uses the default; negative keeps none.
	KeepEvery int
}

func (c TailConfig) withDefaults() TailConfig {
	if c.Capacity == 0 {
		c.Capacity = 256
	}
	if c.SlowOverUS == 0 {
		c.SlowOverUS = 50_000
	}
	if c.KeepEvery == 0 {
		c.KeepEvery = 64
	}
	return c
}

// TailStats summarizes the tail sampler's keep decisions.
type TailStats struct {
	Seen     uint64 `json:"seen"`
	Kept     uint64 `json:"kept"`
	KeptErr  uint64 `json:"kept_err"`
	KeptSlow uint64 `json:"kept_slow"`
	KeptProb uint64 `json:"kept_prob"`
}

// Tail decides, once a request has *finished*, whether its trace is
// worth keeping — the defining property of tail-based sampling: the
// decision sees the outcome, so every shed/errored/idle-reaped/slow
// request survives while the boring fast majority is thinned to a
// 1-in-N trickle.
type Tail struct {
	cfg      TailConfig
	seq      atomic.Uint64
	seen     atomic.Uint64
	keptErr  atomic.Uint64
	keptSlow atomic.Uint64
	keptProb atomic.Uint64
	ring     *traceRing
}

// NewTail builds a tail sampler (zero-value cfg fields take defaults).
func NewTail(cfg TailConfig) *Tail {
	cfg = cfg.withDefaults()
	return &Tail{cfg: cfg, ring: newRing(cfg.Capacity)}
}

// Offer decides r's fate. isErr marks shed/errored/idle-reaped
// requests (always kept); rootDurUS is the root span duration for the
// slow rule. Keeping copies the spans out of the pooled recorder — the
// only per-trace allocation, and only for keepers — so the caller may
// PutRecorder immediately after. Returns whether the trace was kept.
func (t *Tail) Offer(r *Recorder, isErr bool) bool {
	t.seen.Add(1)
	keep := false
	switch {
	case isErr:
		t.keptErr.Add(1)
		keep = true
	case t.cfg.SlowOverUS >= 0 && r.n > 0 && r.spans[0].DurUS >= t.cfg.SlowOverUS:
		t.keptSlow.Add(1)
		keep = true
	case t.cfg.KeepEvery > 0 && t.seq.Add(1)%uint64(t.cfg.KeepEvery) == 0:
		t.keptProb.Add(1)
		keep = true
	}
	if !keep {
		return false
	}
	t.ring.Add(Trace{TraceID: r.traceID, Spans: slices.Clone(r.Spans())})
	return true
}

// Keep stores pre-built spans unconditionally (backend serve spans:
// losing one would break cross-node assembly of a gateway-kept trace,
// so the backend keeps everything and lets ring eviction bound memory).
func (t *Tail) Keep(traceID ID, spans []Span) {
	t.seen.Add(1)
	t.ring.Add(Trace{TraceID: traceID, Spans: slices.Clone(spans)})
}

// Last returns up to n kept traces, oldest first.
func (t *Tail) Last(n int) []Trace { return t.ring.Last(n) }

// TracesResponse is the GET /traces JSON shape. aongate and aonback
// serve it and the fleet scraper and aontrace decode it, so one type is
// the whole contract.
type TracesResponse struct {
	Node   string    `json:"node"`
	Tail   TailStats `json:"tail"`
	Traces []Trace   `json:"traces"`
}

// Response is node's answer to GET /traces?last=N (n<=0 means all).
func (t *Tail) Response(node string, last int) *TracesResponse {
	return &TracesResponse{Node: node, Tail: t.Stats(), Traces: t.Last(last)}
}

// Stats snapshots the keep counters.
func (t *Tail) Stats() TailStats {
	return TailStats{
		Seen:     t.seen.Load(),
		Kept:     t.ring.Kept(),
		KeptErr:  t.keptErr.Load(),
		KeptSlow: t.keptSlow.Load(),
		KeptProb: t.keptProb.Load(),
	}
}
