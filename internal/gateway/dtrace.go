package gateway

import (
	"fmt"
	"time"

	"repro/internal/dtrace"
	"repro/internal/httpmsg"
	"repro/internal/workload"
)

// dtraceState is the gateway side of the tracing plane (internal/dtrace)
// and the gateway's only request clock: every request records stage
// spans into a pooled recorder; when it finishes, the span durations
// are folded into the stage histograms, and the tail sampler keeps the
// whole trace behind GET /traces if the client sampled it or its
// outcome is worth a post-mortem (dtrace.Tail.Offer).
type dtraceState struct {
	node   string
	defUC  int // stage row for requests that ended before a use case was selected
	stages stageHists
	tail   *dtrace.Tail
}

func newDtraceState(cfg Config) *dtraceState {
	d := &dtraceState{
		node:  cfg.TraceNode,
		defUC: useCaseSlot(cfg.UseCase.String(), int(workload.FR)),
		tail:  dtrace.NewTail(),
	}
	if d.node == "" {
		d.node = "gateway"
	}
	return d
}

// finish closes a recorder of a request that was never processed — the
// shed/draining/idle-timeout paths — and hands it to offer. A nil rec (tracing off) is a no-op.
func (d *dtraceState) finish(rec *dtrace.Recorder, uc, outcome string, status int) {
	if rec == nil {
		return
	}
	rec.Annotate(uc, outcome, status)
	rec.Finish(time.Now())
	d.offer(rec)
}

// useCaseSlot maps a root span's use-case annotation back to its stage
// row, def when the request ended before a use case was selected.
func useCaseSlot(name string, def int) int {
	for uc := 0; uc < numTraceUseCases; uc++ {
		if workload.UseCase(uc).String() == name {
			return uc
		}
	}
	return def
}

// offer takes a completed request's recorder: folds its stage spans
// into the stage histograms (before the tail's seen counter moves, so a
// reader that waited on Tail.Seen finds them), runs the keep decision on
// the annotated root span, and recycles the recorder.
func (d *dtraceState) offer(rec *dtrace.Recorder) {
	d.stages.observe(useCaseSlot(rec.Spans()[0].UseCase, d.defUC), rec)
	d.tail.Offer(rec)
	dtrace.PutRecorder(rec)
}

// TraceInfo is the /stats "traces" section: the tail sampler's keep
// accounting. The kept traces themselves are served by GET /traces.
type TraceInfo struct {
	Node string           `json:"node"`
	Tail dtrace.TailStats `json:"tail"`
}

func (s *Server) traceInfo() *TraceInfo {
	if s.dtr == nil {
		return nil
	}
	return &TraceInfo{Node: s.dtr.node, Tail: s.dtr.tail.Stats()}
}

// tracesResponse serves GET /traces?last=N (all kept traces when last
// is absent).
func (s *Server) tracesResponse(query string) (*dtrace.TracesResponse, error) {
	if s.dtr == nil {
		return nil, fmt.Errorf("tracing disabled (enable Config.Trace / -trace)")
	}
	n, err := httpmsg.LastParam(query)
	if err != nil {
		return nil, err
	}
	return s.dtr.tail.Response(s.dtr.node, n), nil
}
