package gateway

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/dtrace"
	"repro/internal/httpmsg"
	"repro/internal/workload"
)

// dtraceState is the gateway side of the tracing plane (internal/dtrace)
// and the gateway's only request clock: every request records stage
// spans into a pooled recorder; when it finishes, the span durations
// are folded into the stage histograms, and the *outcome* decides
// whether the whole trace survives in the tail sampler behind GET
// /traces (shed/idle-reaped/5xx and slow always, 1-in-N otherwise) and
// whether the optional rate-limited slow-request log gets a line.
type dtraceState struct {
	node   string
	defUC  int // stage row for requests that ended before a use case was selected
	stages stageHists
	tail   *dtrace.Tail
	slow   *slowLogger
}

func newDtraceState(cfg Config) *dtraceState {
	slowUS := cfg.TraceSlowOver.Microseconds()
	if cfg.TraceSlowOver < 0 {
		slowUS = -1 // any negative duration disables the slow rule, sub-microsecond ones included
	}
	d := &dtraceState{
		node:  cfg.TraceNode,
		defUC: useCaseSlot(cfg.UseCase.String(), int(workload.FR)),
		tail: dtrace.NewTail(dtrace.TailConfig{
			Capacity:   cfg.TraceCapacity,
			SlowOverUS: slowUS,
			KeepEvery:  cfg.TraceKeepEvery,
		}),
	}
	if d.node == "" {
		d.node = "gateway"
	}
	if cfg.SlowLog != nil {
		perSec := cfg.SlowLogPerSec
		if perSec == 0 {
			perSec = 10
		}
		d.slow = &slowLogger{w: cfg.SlowLog, perSec: perSec}
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
// reader that waited on Tail.Seen finds them), runs the tail-sampling
// decision, emits the slow-request log line for tail outcomes, and
// recycles the recorder. The annotated root span carries everything the
// decisions need.
func (d *dtraceState) offer(rec *dtrace.Recorder) {
	spans := rec.Spans()
	root := &spans[0] // every offered recorder was begun
	d.stages.observe(useCaseSlot(root.UseCase, d.defUC), rec)
	isErr := root.Status >= 500 || root.Outcome == "shed" || root.Outcome == "draining" || root.Outcome == "idle-timeout"
	d.tail.Offer(rec, isErr)
	if isErr && d.slow != nil {
		d.slow.log(spans)
	}
	dtrace.PutRecorder(rec)
}

// slowLogger writes one structured line per tail-outcome request
// (shed, idle-timeout, 5xx), rate-limited per wall-clock second so an
// overload burst can't turn the log into its own overload. It runs
// only on already-slow/shed requests, so its allocations are off the
// hot path by construction.
type slowLogger struct {
	w      io.Writer
	perSec int

	mu      sync.Mutex
	sec     int64
	n       int
	dropped uint64
}

// log formats the request's spans as one key=value line:
//
//	slow-request trace=… uc=… outcome=… status=… total=… read=… parse=…
func (l *slowLogger) log(spans []dtrace.Span) {
	if len(spans) == 0 {
		return
	}
	now := time.Now().Unix()
	l.mu.Lock()
	defer l.mu.Unlock()
	if now != l.sec {
		if l.dropped > 0 {
			fmt.Fprintf(l.w, "slow-request suppressed=%d (rate limit %d/s)\n", l.dropped, l.perSec)
		}
		l.sec, l.n, l.dropped = now, 0, 0
	}
	if l.n >= l.perSec {
		l.dropped++
		return
	}
	l.n++
	root := &spans[0]
	buf := make([]byte, 0, 256)
	buf = append(buf, "slow-request trace="...)
	buf = root.TraceID.AppendHex(buf)
	buf = appendKV(buf, "uc", root.UseCase)
	buf = appendKV(buf, "outcome", root.Outcome)
	buf = append(buf, " status="...)
	buf = strconv.AppendInt(buf, int64(root.Status), 10)
	buf = append(buf, " total="...)
	buf = append(buf, root.Dur().String()...)
	for i := 1; i < len(spans); i++ {
		buf = appendKV(buf, spans[i].Name, spans[i].Dur().String())
	}
	buf = append(buf, '\n')
	l.w.Write(buf)
}

func appendKV(buf []byte, k, v string) []byte {
	if v == "" {
		v = "-"
	}
	buf = append(buf, ' ')
	buf = append(buf, k...)
	buf = append(buf, '=')
	return append(buf, v...)
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
