package dtrace

import (
	"sync"
	"time"

	"repro/internal/poison"
)

// maxSpans bounds the spans one node records for one request. The
// gateway's pipeline emits at most: root + read + queue + parse +
// process + forward + write = 7; slot 8 is headroom so an added stage
// doesn't silently drop spans.
const maxSpans = 8

// Recorder accumulates one request's spans on one node. Recorders are
// pooled (Get/Put) and hold a fixed-size span array, so tracing a
// request allocates nothing until the trace is *kept* — the tail ring
// copies the spans out on Offer, and only for keepers.
//
// Span 0 is the root (created by Begin); Add/Child attach stage spans
// under it. A Recorder is owned by the one goroutine that serves its
// request, from GetRecorder to PutRecorder, and is never shared.
type Recorder struct {
	traceID ID
	rootID  ID
	node    string
	start   time.Time // root start; its monotonic reading times the root like the stages
	n       int
	spans   [maxSpans]Span
	stages  [maxSpans]Stage // stages[i] is the stage of spans[i], i >= 1
}

var recorderPool = sync.Pool{New: func() any { return new(Recorder) }}

// GetRecorder fetches a pooled recorder for one request on node.
func GetRecorder(node string) *Recorder {
	r := recorderPool.Get().(*Recorder)
	r.traceID = NewID()
	r.rootID = 0
	r.node = node
	r.n = 0
	return r
}

// PutRecorder recycles r. The caller must not touch r (or any Spans()
// view of it) afterwards; the race build clears its spans, so a view
// kept past this call reads zero spans.
func PutRecorder(r *Recorder) {
	if r == nil {
		return
	}
	if poison.Enabled {
		r.spans, r.stages, r.n = [maxSpans]Span{}, [maxSpans]Stage{}, 0
	}
	recorderPool.Put(r)
}

// TraceID returns the trace this recorder belongs to.
func (r *Recorder) TraceID() ID { return r.traceID }

// Begin opens the root span at start. Stage spans added later nest
// under it; Finish closes it.
func (r *Recorder) Begin(name string, start time.Time) {
	r.rootID = NewID()
	r.start = start
	r.n = 1
	r.spans[0] = Span{
		TraceID: r.traceID,
		SpanID:  r.rootID,
		Node:    r.node,
		Name:    name,
		StartUS: start.UnixMicro(),
	}
}

// Adopt joins an inbound trace context: the recorder's trace ID becomes
// traceID and the root span parents under parentID. Callable after
// Begin/Add — the gateway only parses headers in the worker, after the
// read span exists — so already-recorded spans are rewritten in place.
func (r *Recorder) Adopt(traceID, parentID ID) {
	if traceID.IsZero() {
		return
	}
	r.traceID = traceID
	for i := 0; i < r.n; i++ {
		r.spans[i].TraceID = traceID
	}
	if r.n > 0 {
		r.spans[0].ParentID = parentID
	}
}

// Sampled reports whether the client sampled this request: its root
// parents under an adopted X-AON-Trace context. Only sampled requests
// propagate the context upstream.
func (r *Recorder) Sampled() bool { return r.n > 0 && !r.spans[0].ParentID.IsZero() }

// Add records a completed stage span under the root. Over-capacity adds
// are dropped (bounded by construction, not by the caller).
func (r *Recorder) Add(st Stage, start time.Time, d time.Duration) {
	r.Child(NewID(), st, start, d)
}

// Child records a completed span with a caller-chosen ID — the forward
// stage mints its span ID *before* the upstream call so the propagated
// header can name it as the backend span's parent.
func (r *Recorder) Child(id ID, st Stage, start time.Time, d time.Duration) {
	if r.n >= maxSpans {
		return
	}
	if d < 0 {
		d = 0
	}
	r.spans[r.n] = Span{
		TraceID:  r.traceID,
		SpanID:   id,
		ParentID: r.rootID,
		Node:     r.node,
		Name:     st.String(),
		StartUS:  start.UnixMicro(),
		DurUS:    d.Microseconds(),
	}
	r.stages[r.n] = st
	r.n++
}

// Annotate stamps the root span with the request's use case and
// disposition.
func (r *Recorder) Annotate(useCase, outcome string, status int) {
	if r.n == 0 {
		return
	}
	r.spans[0].UseCase = useCase
	r.spans[0].Outcome = outcome
	r.spans[0].Status = status
}

// Finish closes the root span at end. The duration is read off the same
// monotonic clock as the stage spans, so non-overlapping stages can
// never sum past their root.
func (r *Recorder) Finish(end time.Time) {
	if r.n == 0 {
		return
	}
	d := end.Sub(r.start).Microseconds()
	if d < 0 {
		d = 0
	}
	r.spans[0].DurUS = d
}

// Spans views the recorded spans. The view aliases the recorder's
// array: invalid after PutRecorder.
func (r *Recorder) Spans() []Span { return r.spans[:r.n] }

// Stage returns the stage of stage span Spans()[i], 1 <= i < len(Spans())
// — how the gateway folds span durations into its per-stage histograms
// without matching names.
func (r *Recorder) Stage(i int) Stage { return r.stages[i] }
