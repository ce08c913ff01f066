// Package gateway is the live counterpart of the simulated AON device: a
// real TCP server that speaks the paper's protocol — HTTP/1.1 POSTs
// carrying AONBench order documents — and runs the same three pipelines
// (FR proxying, CBR XPath routing, SV schema validation, plus the DPI and
// AUTH extensions) on live bytes using the repo's XML stack.
//
// The structure follows Section 3.2.1 of the paper: the device runs one
// worker per logical CPU. In Go that policy is GOMAXPROCS — the
// scheduler runs at most that many goroutines at once — so each
// connection's goroutine frames, parses, processes and answers its own
// messages, and no second pool sits on top. Admission control is one
// atomic in-flight bound: a message that would exceed it is shed with a
// 503 rather than letting goroutines (the live analogue of the paper's
// thread pool) pile up without bound. A metrics layer mirrors the
// simulator's aon.Stats with atomics and adds latency histograms and
// per-second throughput, served on GET /stats and in the final report,
// so the GOMAXPROCS=1 vs N scaling curve can be measured on real hardware
// and compared against the simulated 1CPm vs 2CPm results.
package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/httpmsg"
	"repro/internal/perf/trace"
	"repro/internal/session"
	"repro/internal/upstream"
	"repro/internal/verdict"
	"repro/internal/workload"
	"repro/internal/zc"
)

// Config parameterizes a live gateway.
type Config struct {
	// UseCase is the default pipeline when the request path doesn't name
	// one (/service/FR, /service/CBR, ... select per-request).
	UseCase workload.UseCase
	// MaxBodyBytes rejects larger POSTs with 400; 0 means 1 MiB.
	MaxBodyBytes int
	// ProcessDelay adds a fixed per-message busy-wait to the process
	// stage — a fault-injection knob for emulating a slower device and for
	// testing the admission control deterministically. It spins rather
	// than sleeps, so the stalled message holds its P the way slower
	// processing would.
	ProcessDelay time.Duration
	// IdleTimeout is the per-read deadline on client connections: a
	// connection that goes quiet (between requests or stalled mid-request)
	// is reaped after this long, so dead clients can't pin connection
	// goroutines forever. 0 means the 60s default; negative disables.
	IdleTimeout time.Duration
	// Upstream configures real backend forwarding. When a backend is set
	// for a route, pipeline outcomes routed there are forwarded over
	// pooled keep-alive connections and the backend's response is relayed;
	// with no backends the gateway answers in place (the PR 1 behavior).
	Upstream upstream.Config
	// Counters enables the live measurement layer (the paper's VTune
	// methodology on real hardware): a process-wide perf_event_open
	// counter set read as windowed deltas in Snapshot and /stats, plus
	// one event group per logical CPU for the per-CPU CPI/cache/branch
	// skew view.
	// Degrades to runtime-metrics-only observability where perf is
	// unavailable.
	Counters bool
	// Timeline starts a sampling session (the paper's VTune sampling
	// sessions): a fixed-interval sampler snapshots counter windows,
	// gateway metric deltas, and runtime gauges into a bounded ring served
	// on /timeline, summarized on /stats, and dumpable as CSV. Implies
	// Counters.
	Timeline bool
	// SampleInterval is the sampling period; 0 means 100ms. Negative is
	// rejected by New.
	SampleInterval time.Duration
	// SampleCapacity bounds the timeline ring; 0 means 600 samples (one
	// minute at the default interval). Negative is rejected by New.
	SampleCapacity int
	// TimelineFlush, with TimelineFlushInterval > 0, persists the
	// sampling session continuously: a background flusher appends every
	// newly recorded sample to the appender each interval, so the
	// timeline survives a crash or restart instead of living only in the
	// in-memory ring. Implies Timeline.
	TimelineFlush *session.Appender
	// TimelineFlushInterval is the persistence period; 0 disables the
	// flusher (the PR 4 dump-on-signal/shutdown behavior). Negative is
	// rejected by New.
	TimelineFlushInterval time.Duration
	// Trace enables per-request tracing (internal/dtrace), the gateway's
	// one request clock: every request records real spans around the
	// read→parse→process→forward→write stage points into a pooled
	// recorder, adopts an inbound X-AON-Trace context (or mints one), and
	// propagates context on upstream forwards. Each finished request's
	// span durations are aggregated into per-use-case per-stage
	// histograms on /stats ("stages"), and the trace is offered to a
	// tail-based sampler — shed/idle-reaped/5xx and slow requests are
	// always kept, the fast majority 1-in-TraceKeepEvery — served on GET
	// /traces.
	Trace bool
	// TraceNode names this process in recorded spans (default
	// "gateway"); fleet mode passes the topology node key so assembled
	// traces attribute time to the right process.
	TraceNode string
	// TraceSlowOver is the tail sampler's always-keep latency bound
	// (default 50ms; negative disables the slow rule).
	TraceSlowOver time.Duration
	// TraceKeepEvery probabilistically keeps 1-in-N ordinary traces
	// (default 64). Negative is rejected by New.
	TraceKeepEvery int
	// TraceCapacity bounds the kept-trace ring (default 256). Negative
	// is rejected by New.
	TraceCapacity int
	// SlowLog, when set with Trace, receives one structured line per
	// shed/idle-timeout/5xx request (trace ID, use case, stage
	// breakdown), rate-limited to SlowLogPerSec lines per second
	// (default 10) so overload can't amplify itself through logging.
	SlowLog io.Writer
	// SlowLogPerSec caps slow-request log lines per wall-clock second
	// (default 10). Negative is rejected by New.
	SlowLogPerSec int
	// Adaptive turns on model-driven admission control: a periodic
	// control loop feeds the analytic capacity model
	// (internal/capacity) with windowed arrival-rate, latency, and
	// stage-demand observations, and the model's decisions move the 503
	// admission bound at runtime — with hysteresis, a floor of
	// GOMAXPROCS+1, a ceiling of MaxInflight, and a hard fallback to
	// MaxInflight when observations go stale or the model diverges from
	// measurement. Implies Trace (the model's service demands are the
	// traced stage histograms).
	Adaptive bool
	// TargetP99 is the latency bound adaptive admission defends
	// (default 100ms).
	TargetP99 time.Duration
	// AdaptInterval is the control-loop period (default 500ms).
	AdaptInterval time.Duration
	// MaxInflight is the admission bound: a POST that would make more
	// than this many messages in flight (admitted, not yet answered) is
	// shed with 503. 0 means 5x GOMAXPROCS. Adaptive mode starts here
	// and lets the model pull the bound down.
	MaxInflight int64
}

// response is a formatted answer on its way to the client. head holds
// the header block (plus any inlined small body); body, when non-nil, is
// a separately-owned payload written vectored after head (writev)
// instead of being copied. buf and bodyBuf, when non-nil, are the pooled
// buffers backing head and body (the latter holds a relayed upstream
// answer) — the connection goroutine recycles both after the write
// completes, which is the lifetime discipline that makes the pooling
// safe.
type response struct {
	head    []byte
	body    []byte
	buf     *[]byte
	bodyBuf *[]byte
	close   bool // respond then close the connection
}

// Hot-path pools. Frames and bufio readers are owned by one connection
// at a time, response buffers by one in-flight response; every Get and
// its Put run on the same connection goroutine, so pooled memory is
// never shared between two owners.
var (
	framePool = sync.Pool{New: func() any {
		b := make([]byte, 0, 8<<10)
		return &b
	}}
	brPool = sync.Pool{New: func() any {
		return bufio.NewReaderSize(nil, 32<<10)
	}}
	respBufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 1<<10)
		return &b
	}}
)

// Prebuilt shed/drain responses: under overload these are the most
// frequent writes, so they must not cost a format each.
var (
	respShed     = formatError(503, "admission bound", false)
	respDraining = formatError(503, "draining", true)
)

// Server is one live gateway instance.
type Server struct {
	cfg       Config
	pipe      *Pipeline
	fwd       *upstream.Forwarder // nil: answer in place
	counters  *counterSampler     // nil: measurement layer off
	statsView *counterView        // the /stats scrape's own measurement windows
	dtr       *dtraceState        // nil: tracing off
	timeline  *timelineState      // nil: no sampling session
	capacity  *capacityLoop       // nil: adaptive admission off
	Metrics   *Metrics

	ln       net.Listener
	stopping atomic.Bool
	inflight atomic.Int64 // messages between admission and response write

	// admitBound is the live admission limit: a connection sheds with 503
	// when admitting its message would take inflight past it. Static mode
	// holds it at MaxInflight; the capacity control loop moves it.
	admitBound atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	shutOnce sync.Once
	shutErr  error
}

// New builds a server; Start or Serve brings it live.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.SampleInterval < 0 {
		return nil, fmt.Errorf("gateway: sampling interval must be positive, got %v", cfg.SampleInterval)
	}
	if cfg.SampleCapacity < 0 {
		return nil, fmt.Errorf("gateway: sample capacity must be positive, got %d", cfg.SampleCapacity)
	}
	if cfg.TraceKeepEvery < 0 {
		return nil, fmt.Errorf("gateway: trace keep ratio must be positive, got %d", cfg.TraceKeepEvery)
	}
	if cfg.TraceCapacity < 0 {
		return nil, fmt.Errorf("gateway: trace capacity must be positive, got %d", cfg.TraceCapacity)
	}
	if cfg.SlowLogPerSec < 0 {
		return nil, fmt.Errorf("gateway: slow-log rate must be positive, got %d", cfg.SlowLogPerSec)
	}
	if cfg.TimelineFlushInterval < 0 {
		return nil, fmt.Errorf("gateway: timeline flush interval must be positive, got %v", cfg.TimelineFlushInterval)
	}
	if cfg.TimelineFlush != nil && cfg.TimelineFlushInterval > 0 {
		// Continuous persistence needs a session to persist.
		cfg.Timeline = true
	}
	if cfg.Timeline {
		// A sampling session is a consumer of the measurement layer.
		cfg.Counters = true
	}
	if cfg.TargetP99 < 0 {
		return nil, fmt.Errorf("gateway: target p99 must be positive, got %v", cfg.TargetP99)
	}
	if cfg.AdaptInterval < 0 {
		return nil, fmt.Errorf("gateway: adapt interval must be positive, got %v", cfg.AdaptInterval)
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("gateway: max inflight must be positive, got %d", cfg.MaxInflight)
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 5 * int64(runtime.GOMAXPROCS(0))
	}
	var cl *capacityLoop
	if cfg.Adaptive {
		// The model's service demands are the traced stage histograms.
		cfg.Trace = true
		if cfg.TargetP99 == 0 {
			cfg.TargetP99 = 100 * time.Millisecond
		}
		if cfg.AdaptInterval == 0 {
			cfg.AdaptInterval = 500 * time.Millisecond
		}
		var err error
		if cl, err = newCapacityLoop(cfg); err != nil {
			return nil, err
		}
	}
	pipe, err := NewPipeline(cfg.UseCase, "", nil)
	if err != nil {
		return nil, err
	}
	var fwd *upstream.Forwarder
	if cfg.Upstream.Enabled() {
		fwd, err = upstream.New(cfg.Upstream)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:      cfg,
		pipe:     pipe,
		fwd:      fwd,
		capacity: cl,
		Metrics:  newMetrics(),
		conns:    map[net.Conn]struct{}{},
	}
	s.admitBound.Store(cfg.MaxInflight)
	if cl != nil {
		cl.s = s
	}
	if cfg.Counters {
		s.counters = newCounterSampler(cfg.UseCase)
		s.statsView = newCounterView(s.counters)
	}
	if cfg.Trace {
		s.dtr = newDtraceState(cfg)
	}
	return s, nil
}

// CountersMode reports the measurement layer's operating mode ("hw",
// "runtime-only", or "off") and its one-line notice, for startup
// banners and sweep headers.
func (s *Server) CountersMode() (mode, notice string) { return s.counters.mode() }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in background
// goroutines until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.acceptWG.Add(1)
	go s.acceptLoop()
	if s.cfg.Timeline {
		if err := s.startTimeline(); err != nil {
			s.Shutdown(context.Background())
			return err
		}
	}
	if s.capacity != nil {
		s.capacity.start()
	}
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.stopping.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.Metrics.Conns.Add(1)
		s.Metrics.ActiveConns.Add(1)
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) removeConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	s.Metrics.ActiveConns.Add(-1)
	s.connWG.Done()
}

// handleConn serves one keep-alive connection: it frames each request
// off the socket, runs it through admission control, and processes and
// answers it right here. Parallelism is the Go scheduler's: at most
// GOMAXPROCS connection goroutines run at once — the paper's one worker
// per logical CPU.
func (s *Server) handleConn(c net.Conn) {
	defer s.removeConn(c)
	br := brPool.Get().(*bufio.Reader)
	br.Reset(c)
	defer func() {
		br.Reset(nil)
		brPool.Put(br)
	}()
	// The connection owns one pooled frame, one writev vector and one
	// parse/format scratch for its whole life: ReadRequest appends each
	// message into the frame, process parses views out of it, and the
	// next message reuses it only after this one's response is written.
	fp := framePool.Get().(*[]byte)
	defer framePool.Put(fp)
	var vec httpmsg.Writev
	var sc wscratch
	for {
		// The idle deadline covers one whole request read: a client that
		// goes quiet between requests *or* stalls mid-request is reaped,
		// so dead clients can't pin connection goroutines forever.
		// Pipelined requests already buffered are served without touching
		// the wire, so they never trip it.
		if s.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		// A traced request's clock starts at its first byte: Peek blocks
		// until the next request's first byte arrives (consuming nothing),
		// so keep-alive idle time never counts as read time. Peek errors
		// resurface in ReadRequest, which reports them on its existing
		// paths. The tail sampler decides at completion whether the trace
		// survives.
		var rec *dtrace.Recorder
		var t time.Time // start of the stage being timed (traced requests only)
		if s.dtr != nil {
			br.Peek(1)
			t = time.Now()
			rec = dtrace.GetRecorder(s.dtr.node)
			rec.Begin("gateway", t)
		}
		raw, err := httpmsg.ReadRequest(br, s.cfg.MaxBodyBytes, *fp)
		*fp = raw
		if err != nil {
			var ne net.Error
			var fe *httpmsg.FrameError
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				s.Metrics.IdleTimeouts.Add(1)
				if len(raw) > 0 {
					// Reaped mid-request: keep a synthetic trace so the
					// idle-timeout is findable in the tail ring.
					s.dtr.finish(rec, "", "idle-timeout", 0)
					rec = nil
				}
			case errors.As(err, &fe):
				s.Metrics.ParseErrors.Add(1)
				s.write(c, fe.Response())
			}
			dtrace.PutRecorder(rec)
			return
		}
		s.Metrics.BytesIn.Add(uint64(len(raw)))
		// Admission time: the read stage ends and service latency starts.
		start := time.Now()
		if rec != nil {
			rec.Add(dtrace.StageRead, t, start.Sub(t))
		}

		// GET requests (the /stats endpoint) bypass admission so
		// observability survives overload — the whole point of /stats.
		if bytes.HasPrefix(raw, []byte("GET ")) {
			resp := s.handleGet(raw)
			if rec != nil {
				t = lap(rec, dtrace.StageProcess, start)
			}
			ok := s.write(c, resp)
			if rec != nil {
				lap(rec, dtrace.StageWrite, t)
				// Timed into the "GET" row, never offered to the tail: a
				// scrape is not worth a post-mortem, and Tail.Seen stays the
				// count of data-plane requests.
				s.dtr.stages.observe(traceSlotControl, rec)
				dtrace.PutRecorder(rec)
			}
			if !ok {
				return
			}
			continue
		}

		if s.stopping.Load() {
			s.dtr.finish(rec, "", "draining", 503)
			s.write(c, respDraining)
			return
		}
		// The one shed path: claim a slot, give it back if that overshot
		// the bound. The control loop moves the bound at runtime when the
		// model says more concurrency would blow the p99 target.
		if s.inflight.Add(1) > s.admitBound.Load() {
			s.inflight.Add(-1)
			s.Metrics.Shed.Add(1)
			s.dtr.finish(rec, "", "shed", 503)
			if !s.write(c, respShed) {
				return
			}
			continue
		}
		r := s.process(raw, start, rec, &sc)
		if rec != nil {
			t = time.Now()
		}
		ok := s.writeResp(c, &r, &vec)
		if rec != nil {
			rec.Finish(lap(rec, dtrace.StageWrite, t))
			s.dtr.offer(rec)
		}
		s.inflight.Add(-1)
		if !ok || r.close {
			return
		}
	}
}

// lap closes stage st of a traced request at the current time — the one
// clock read for that boundary — and returns it as the next stage's
// start.
func lap(rec *dtrace.Recorder, st dtrace.Stage, from time.Time) time.Time {
	now := time.Now()
	rec.Add(st, from, now.Sub(from))
	return now
}

// write sends a response and accounts the bytes; false means the
// connection is dead.
func (s *Server) write(c net.Conn, b []byte) bool {
	n, err := c.Write(b)
	s.Metrics.BytesOut.Add(uint64(n))
	return err == nil
}

// writeResp sends a processed response through the connection's
// writev vector — vectored when a separately-owned body rides along —
// and recycles the pooled head and body buffers once the write is done.
func (s *Server) writeResp(c net.Conn, r *response, vec *httpmsg.Writev) bool {
	n, err := vec.Write(c, r.head, r.body)
	s.Metrics.BytesOut.Add(uint64(n))
	putRespBuf(r.buf, r.head)
	putRespBuf(r.bodyBuf, r.body)
	return err == nil
}

// putRespBuf returns a pooled response buffer p to respBufPool, keeping
// the capacity b (the bytes built in it) grew to. A nil p is a buffer
// the pool does not own.
func putRespBuf(p *[]byte, b []byte) {
	if p != nil {
		*p = b[:0]
		respBufPool.Put(p)
	}
}

// wscratch is one connection's reusable parse/format state: the request and
// response structs, their header backing arrays, the verdict-body
// scratch, the XJ translation, the upstream request head and round-trip
// result. Everything in it is dead by the time process returns except
// bytes already copied into the pooled response buffer and the XJ
// translation, which an in-place response writes as its body: that one is
// dead once writeResp returns, before the connection reads its next
// message. The relayed upstream body is never in it (forward hands upRes
// a pooled buffer the response owns and takes it back out).
type wscratch struct {
	req    httpmsg.Request
	resp   httpmsg.Response
	hdrs   []httpmsg.Header
	body   []byte // small JSON bodies; always inlined into head
	xj     []byte // XJ: the translated body, then its Content-Length digits
	upReq  httpmsg.Request
	upHdrs []httpmsg.Header
	upHead []byte // upstream request header block
	upRes  upstream.Result
	trval  []byte // propagated X-AON-Trace header value scratch
}

// process is the message pipeline: full HTTP parse, use-case dispatch,
// response build. The parse is zero-copy (views into raw, the
// connection's pooled frame) and the response is formatted into a pooled
// buffer recycled after the write — both safe because the connection
// reads its next message into the frame only after this response is
// written.
func (s *Server) process(raw []byte, start time.Time, rec *dtrace.Recorder, sc *wscratch) response {
	// Traced requests read the clock once per stage boundary; the
	// ProcessDelay fault-injection spin runs inside the process stage, so
	// an emulated slower device shows up as process demand — which is
	// what the capacity model (and adaptive admission) must see.
	t := start // start of the stage being timed (traced requests only)
	req := &sc.req
	err := httpmsg.ParseRequestInto(raw, req)
	if rec != nil {
		t = lap(rec, dtrace.StageParse, t)
	}
	if err != nil {
		uc := s.cfg.UseCase // malformed request: no path to select from
		if rec != nil {
			rec.Annotate(uc.String(), verdict.OutParseError.String(), 400)
		}
		s.Metrics.Done(verdict.OutParseError, uc, time.Since(start))
		return response{head: formatError(400, err.Error(), true), close: true}
	}
	if rec != nil {
		// Adopt an inbound trace context (aonload/aoncamp originate
		// traces by injecting the header); the zero-copy Get hands out a
		// view, parsed without allocating.
		if v, ok := req.Get(dtrace.Header); ok {
			if tid, pid, ok := dtrace.ParseHeaderValue(v); ok {
				rec.Adopt(tid, pid)
			}
		}
	}
	uc := s.pipe.SelectUseCase(req.Target)
	if d := s.cfg.ProcessDelay; d > 0 {
		for until := time.Now().Add(d); time.Now().Before(until); {
		}
	}
	out := s.pipe.process(uc, req, &sc.xj)
	if rec != nil {
		lap(rec, dtrace.StageProcess, t)
	}
	if out == verdict.OutParseError {
		if rec != nil {
			rec.Annotate(uc.String(), out.String(), 400)
		}
		s.Metrics.Done(out, uc, time.Since(start))
		return response{head: formatError(400, "unprocessable message", false)}
	}
	connClose := false
	if v, ok := req.Get("Connection"); ok && strings.EqualFold(v, "close") {
		connClose = true
	}
	route := routeOf(out)

	resp := &sc.resp
	*resp = httpmsg.Response{Status: 200, Headers: sc.hdrs[:0]}
	// vbody rides as a separate writev segment (the translated XJ payload
	// in sc.xj, or the upstream body in the pooled vbuf the response owns);
	// inline is verdict scratch, copied into the pooled head.
	var vbody, inline []byte
	var vbuf *[]byte
	if s.fwd != nil && s.fwd.Has(route) {
		// Forwarding mode: the paper's device proxies onward — relay the
		// backend's answer (or map its failure to 502/504, never hang).
		if vbuf, inline = s.forward(resp, route, uc, out, req, sc, rec); vbuf != nil {
			vbody = *vbuf
		}
	} else {
		// In-place mode (no backend for this route): synthesize the
		// routing verdict, the PR 1 behavior. XJ answers with its own
		// payload — the pipeline already rewrote req.Body to the
		// translated JSON document in sc.xj, which outlives the write.
		resp.Headers = append(resp.Headers,
			httpmsg.Header{Name: "Content-Type", Value: "application/json"},
			httpmsg.Header{Name: RouteHeader, Value: route},
			httpmsg.Header{Name: "X-AON-Outcome", Value: out.String()},
		)
		if out == verdict.OutTranslated {
			vbody = req.Body
		} else {
			sc.body = appendVerdict(sc.body[:0], uc.String(), out.String(), route)
			inline = sc.body
		}
	}
	if rec != nil {
		rec.Annotate(uc.String(), out.String(), resp.Status)
	}
	s.Metrics.Done(out, uc, time.Since(start))
	if connClose {
		resp.Headers = append(resp.Headers, httpmsg.Header{Name: "Connection", Value: "close"})
	}
	buf := respBufPool.Get().(*[]byte)
	head := httpmsg.AppendResponseHeader((*buf)[:0], resp, len(vbody)+len(inline))
	head = append(head, inline...)
	sc.hdrs = resp.Headers[:0] // keep the grown header backing
	return response{head: head, body: vbody, buf: buf, bodyBuf: vbuf, close: connClose}
}

// appendVerdict appends the in-place routing verdict JSON — the append
// twin of fmt.Sprintf(`{"usecase":%q,...}`) for values that never need
// escaping.
func appendVerdict(dst []byte, uc, out, route string) []byte {
	dst = append(dst, `{"usecase":"`...)
	dst = append(dst, uc...)
	dst = append(dst, `","outcome":"`...)
	dst = append(dst, out...)
	dst = append(dst, `","route":"`...)
	dst = append(dst, route...)
	return append(dst, `"}`...)
}

// forward relays one processed message to the route's backend and fills
// resp from the backend's answer. Forwarding failures map to 502
// (unreachable/down) or 504 (timed out) — bounded by the upstream retry
// budget, so the client never hangs on a dead backend. The upstream
// request header is built in the connection's scratch and written vectored
// with the body view, so forwarding copies no payload bytes. With rec
// set, the trace context propagates on an X-AON-Trace header whose
// parent span ID is minted *before* the round trip — the backend's
// serve span parents under the forward span it rode in on. The backend's
// body is read into a respBufPool buffer that becomes the response's own
// (writeResp recycles it after the write), so relaying copies and
// allocates nothing per message. Returns (that buffer, nil) on success
// and (nil, inline error body) on failure.
func (s *Server) forward(resp *httpmsg.Response, route string, uc workload.UseCase, out verdict.Outcome, req *httpmsg.Request, sc *wscratch, rec *dtrace.Recorder) (relayed *[]byte, inline []byte) {
	up := &sc.upReq
	*up = httpmsg.Request{
		Method:  "POST",
		Target:  httpmsg.RewriteTarget(req, trace.Nop{}),
		Proto:   "HTTP/1.1",
		Headers: sc.upHdrs[:0],
	}
	up.Headers = append(up.Headers,
		httpmsg.Header{Name: "Host", Value: route},
		httpmsg.Header{Name: "Content-Type", Value: contentTypeOf(req)},
		httpmsg.Header{Name: RouteHeader, Value: route},
		httpmsg.Header{Name: "X-AON-Outcome", Value: out.String()},
		httpmsg.Header{Name: "X-AON-Usecase", Value: uc.String()},
	)
	var fwdID dtrace.ID
	var tFwd time.Time
	if rec != nil {
		fwdID = dtrace.NewID()
		sc.trval = dtrace.AppendHeaderValue(sc.trval[:0], rec.TraceID(), fwdID)
		// The zc view over the connection's scratch is safe: the serializer
		// below copies header values into upHead before the scratch is
		// touched again.
		up.Headers = append(up.Headers,
			httpmsg.Header{Name: dtrace.Header, Value: zc.String(sc.trval)})
		tFwd = time.Now()
	}
	sc.upHead = httpmsg.AppendRequestHeader(sc.upHead[:0], up, len(req.Body))
	sc.upHdrs = up.Headers[:0]
	relayed = respBufPool.Get().(*[]byte)
	res := &sc.upRes
	res.Body = *relayed
	err := s.fwd.RoundTripInto(route, sc.upHead, req.Body, res)
	*relayed, res.Body = res.Body, nil // the response's from here on, not the scratch's
	if rec != nil {
		rec.Child(fwdID, dtrace.StageForward, tFwd, time.Since(tFwd))
	}
	if err != nil {
		putRespBuf(relayed, *relayed)
		s.Metrics.UpstreamErrs.Add(1)
		resp.Status = upstream.StatusFor(err)
		resp.Headers = append(resp.Headers,
			httpmsg.Header{Name: "Content-Type", Value: "application/json"},
			httpmsg.Header{Name: RouteHeader, Value: route},
			httpmsg.Header{Name: "X-AON-Outcome", Value: out.String()},
		)
		sc.body = fmt.Appendf(sc.body[:0], `{"error":%q,"route":%q}`, err.Error(), route)
		return nil, sc.body
	}
	ct := res.ContentType
	if ct == "" {
		ct = "application/octet-stream"
	}
	resp.Status = res.Status
	resp.Headers = append(resp.Headers,
		httpmsg.Header{Name: "Content-Type", Value: ct},
		httpmsg.Header{Name: RouteHeader, Value: route},
		httpmsg.Header{Name: "X-AON-Outcome", Value: out.String()},
		httpmsg.Header{Name: "X-AON-Backend", Value: res.Addr},
	)
	return relayed, nil
}

// contentTypeOf returns the request's Content-Type (default text/xml).
func contentTypeOf(req *httpmsg.Request) string {
	if v, ok := req.Get("Content-Type"); ok {
		return v
	}
	return "text/xml; charset=utf-8"
}

// handleGet serves the observability surface: GET /stats returns the
// metrics snapshot, GET /timeline?last=N the sampling session's ring;
// anything else is 404.
func (s *Server) handleGet(raw []byte) []byte {
	req, err := httpmsg.ParseRequest(raw)
	if err != nil {
		return formatError(400, err.Error(), false)
	}
	path, query, _ := strings.Cut(req.Target, "?")
	path = strings.TrimSuffix(path, "/")
	switch {
	case strings.HasSuffix(path, "stats"):
		return httpmsg.JSONResponse(200, s.Snapshot())
	case strings.HasSuffix(path, "timeline"):
		tr, err := s.timelineResponse(query)
		if err != nil {
			return formatError(404, err.Error(), false)
		}
		return httpmsg.JSONResponse(200, tr)
	case strings.HasSuffix(path, "traces"):
		tr, err := s.tracesResponse(query)
		if err != nil {
			return formatError(404, err.Error(), false)
		}
		return httpmsg.JSONResponse(200, tr)
	}
	return formatError(404, "not found", false)
}

// formatError builds a small JSON error response.
func formatError(status int, msg string, connClose bool) []byte {
	hs := []httpmsg.Header{{Name: "Content-Type", Value: "application/json"}}
	if status == 503 {
		hs = append(hs, httpmsg.Header{Name: "Retry-After", Value: "1"})
	}
	if connClose {
		hs = append(hs, httpmsg.Header{Name: "Connection", Value: "close"})
	}
	return httpmsg.FormatResponse(&httpmsg.Response{
		Status:  status,
		Headers: hs,
		Body:    []byte(fmt.Sprintf(`{"error":%q}`, msg)),
	})
}

// Snapshot reads the full observability surface: the gateway counters
// plus, in forwarding mode, the per-backend upstream section, plus, with
// the measurement layer on, the hardware/runtime counters section (each
// call closes one /stats measurement window — the timeline samples
// through its own view, so the two never steal each other's deltas),
// plus the stage-histogram, trace and sampling-session sections when
// enabled.
func (s *Server) Snapshot() Snapshot {
	snap := s.Metrics.Snapshot()
	snap.Workers = runtime.GOMAXPROCS(0)
	if s.fwd != nil {
		snap.Upstream = s.fwd.Snapshot()
	}
	if s.statsView != nil {
		snap.Counters = s.statsView.snapshot()
	}
	if s.dtr != nil {
		snap.Stages = s.dtr.stages.snapshot()
	}
	snap.Timeline = s.timelineInfo()
	snap.Traces = s.traceInfo()
	if s.capacity != nil {
		snap.Capacity = s.capacity.snapshot()
	}
	return snap
}

// Shutdown drains gracefully: stop accepting, let in-flight messages
// finish (bounded by ctx), then close connections and stop the
// background loops. Idempotent; later calls return the first call's
// result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() { s.shutErr = s.shutdown(ctx) })
	return s.shutErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.stopping.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.acceptWG.Wait()

	// Drain: admission is closed (connections see stopping), so once
	// nothing is between admission and response write, every accepted
	// message has been answered.
	drained := ctx.Err()
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			drained = ctx.Err()
		case <-time.After(2 * time.Millisecond):
			continue
		}
		break
	}

	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	if s.capacity != nil {
		s.capacity.stop()
	}
	// The sampling session stops before the measurement layer closes, so
	// no sampler tick runs against a half-torn-down counter set.
	s.closeTimeline()
	if s.fwd != nil {
		s.fwd.Close()
	}
	s.counters.close()
	return drained
}
