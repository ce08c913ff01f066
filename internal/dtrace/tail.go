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

// newRing makes a ring keeping the last capacity traces.
func newRing(capacity int) *traceRing {
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

// ringCapacity is how many kept traces a node's ring holds, gateway and
// backend alike. At a campaign's default 250 ms trace pulls it covers
// about 4 000 kept traces a second — about three times the ≈ 1 300/s a
// saturated 4-connection FR run over launched nodes samples on a 2-vCPU
// host at trace_every 16 — before a pull can miss one to eviction.
const ringCapacity = 1024

// slowOverUS is the root duration from which an unsampled trace is kept
// anyway: a request this slow is worth a look whoever sampled it.
const slowOverUS = 50_000

// TailStats summarizes the tail sampler's keep decisions. KeptErr,
// KeptSampled and KeptSlow partition Kept.
type TailStats struct {
	Seen        uint64 `json:"seen"`
	Kept        uint64 `json:"kept"`
	KeptErr     uint64 `json:"kept_err"`
	KeptSampled uint64 `json:"kept_sampled"`
	KeptSlow    uint64 `json:"kept_slow"`
}

// Tail decides, once a request has *finished*, whether its trace is
// worth keeping. The client makes the one sampling decision — a request
// it sampled arrives carrying an X-AON-Trace header — and the tail adds
// only what the client could not know in advance: every failed request
// and every slow one survives too, so the ring holds exactly the sampled
// traces plus the requests worth a post-mortem.
type Tail struct {
	seen        atomic.Uint64
	keptErr     atomic.Uint64
	keptSampled atomic.Uint64
	keptSlow    atomic.Uint64
	ring        *traceRing
}

// NewTail builds a tail sampler over a ringCapacity-trace ring.
func NewTail() *Tail {
	return &Tail{ring: newRing(ringCapacity)}
}

// tailOutcome reports whether a finished root span ended the way every
// trace is kept for: shed at the admission bound, refused while
// draining, reaped idle mid-request, or answered 5xx.
func tailOutcome(root *Span) bool {
	switch root.Outcome {
	case "shed", "draining", "idle-timeout":
		return true
	}
	return root.Status >= 500
}

// Offer decides r's fate from its annotated, finished root span, first
// rule wins: a tail outcome is kept (KeptErr); so is a trace the client
// sampled, whose root parents under the adopted client span
// (KeptSampled); so is any other whose root took slowOverUS or more
// (KeptSlow). Keeping copies the spans out of the pooled recorder — the
// only per-trace allocation, and only for keepers — so the caller may
// PutRecorder immediately after. Returns whether the trace was kept.
func (t *Tail) Offer(r *Recorder) bool {
	t.seen.Add(1)
	root := &r.spans[0] // every offered recorder was begun
	switch {
	case tailOutcome(root):
		t.keptErr.Add(1)
	case r.Sampled():
		t.keptSampled.Add(1)
	case root.DurUS >= slowOverUS:
		t.keptSlow.Add(1)
	default:
		return false
	}
	t.ring.Add(Trace{TraceID: r.traceID, Spans: slices.Clone(r.Spans())})
	return true
}

// Keep stores pre-built spans unconditionally. The backend keeps every
// serve span it records: the gateway propagates X-AON-Trace only on
// client-sampled requests, so each one completes a sampled trace.
func (t *Tail) Keep(traceID ID, spans []Span) {
	t.seen.Add(1)
	t.ring.Add(Trace{TraceID: traceID, Spans: slices.Clone(spans)})
}

// Last returns up to n kept traces, oldest first.
func (t *Tail) Last(n int) []Trace { return t.ring.Last(n) }

// TracesResponse is the GET /traces JSON shape. aongate and aonback
// serve it and the campaign's trace pull decodes it, so one type is the
// whole contract.
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
		Seen:        t.seen.Load(),
		Kept:        t.ring.Kept(),
		KeptErr:     t.keptErr.Load(),
		KeptSampled: t.keptSampled.Load(),
		KeptSlow:    t.keptSlow.Load(),
	}
}
