package upstream

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/httpmsg"
	"repro/internal/lhist"
)

// BackendConfig parameterizes a BackendServer.
type BackendConfig struct {
	// Name tags responses (and the paper topology role): "order" or
	// "error". Default "order".
	Name string
	// RespBytes pads the response body to approximately this size
	// (default 128) so the reverse path's wire cost is configurable —
	// the paper's endpoints answer with real payloads.
	RespBytes int
	// Delay stalls each response — emulates backend service time so the
	// FR extreme shows real upstream latency (and tests can force 504s).
	Delay time.Duration
	// Seed keys the deterministic error-rate draw (see FaultSpec), so a
	// campaign rerun with the same seed errors the same requests.
	Seed uint64
	// TraceNode names this process in recorded serve spans (default the
	// backend Name); a campaign passes the topology node key. The backend
	// records a serve span for every request that arrives with an
	// X-AON-Trace header — the gateway propagates one only when the
	// client sampled the request — and keeps them all in a ring served
	// on GET /traces, so every sampled trace gets its backend leg.
	TraceNode string
}

// BackendServer is the minimal order/error endpoint of the paper's
// end-to-end FR topology: it accepts keep-alive HTTP/1.1 POSTs and
// answers 200 with a configurable-size JSON ack after a configurable
// delay. GET /stats returns the live counter set as JSON — the same
// self-reporting surface the gateway has, so the campaign recorder sees
// backends too. cmd/aonback wraps it; tests and benchmarks embed it so a
// single process can stand up the full gateway→backend loopback chain.
type BackendServer struct {
	cfg   BackendConfig
	ln    net.Listener
	start time.Time

	Requests      atomic.Uint64 // messages answered
	Failed        atomic.Uint64 // connections dropped by fault injection
	Errored       atomic.Uint64 // injected 500s served
	StatsRequests atomic.Uint64 // GET /stats scrapes answered
	FaultPosts    atomic.Uint64 // POST /fault control requests applied
	BytesIn       atomic.Uint64
	BytesOut      atomic.Uint64
	seq           atomic.Uint64 // request sequencing incl. injected failures

	// Runtime fault state, scripted over POST /fault (see FaultSpec).
	failNext     atomic.Int64  // remaining requests to drop
	errRateBits  atomic.Uint64 // math.Float64bits of the injected-500 rate
	extraDelayNS atomic.Int64  // added per-response latency
	downUntilNS  atomic.Int64  // outage window end (UnixNano; 0 = none)
	lastFaultMS  atomic.Int64  // wall clock of the last applied /fault step

	// traces holds serve spans for requests that carried an inbound
	// X-AON-Trace header, joined cross-node by trace ID.
	traces *dtrace.Tail

	// Latency is the per-message service histogram (framing complete →
	// response written, the configured Delay included).
	Latency lhist.Hist

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// StartBackend listens on addr and serves until Close.
func StartBackend(addr string, cfg BackendConfig) (*BackendServer, error) {
	if cfg.Name == "" {
		cfg.Name = "order"
	}
	if cfg.RespBytes <= 0 {
		cfg.RespBytes = 128
	}
	if cfg.TraceNode == "" {
		cfg.TraceNode = cfg.Name
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &BackendServer{cfg: cfg, ln: ln, start: time.Now(), conns: map[net.Conn]struct{}{}}
	s.traces = dtrace.NewTail()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *BackendServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and closes every open connection.
func (s *BackendServer) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *BackendServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(c)
	}
}

func (s *BackendServer) handle(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(c, 32<<10)
	// Per-connection scratch, reused across the keep-alive stream: the
	// buffer the request head is framed into, the request parsed out of it
	// (its strings are views into the buffer, dead at the next ReadHead),
	// the write buffer the ack is serialized into, the ack body, and the
	// Response header scratch.
	var (
		hbuf, wbuf, bbuf []byte
		req              httpmsg.Request
		ackRes           = httpmsg.Response{Status: 200, Headers: jsonCT}
	)
	for {
		head, clen, err := httpmsg.ReadHead(br, hbuf)
		hbuf = head
		if err != nil {
			s.refuse(c, err)
			return
		}
		if err := httpmsg.ParseHeadInto(head, &req); err != nil {
			// A head the parser refuses gets the gateway's answer: 400,
			// then close.
			s.refuse(c, &httpmsg.FrameError{Status: 400, Msg: err.Error()})
			return
		}
		path, query, _ := strings.Cut(req.Target, "?")
		path = strings.TrimSuffix(path, "/")
		// The body is normally thrown away, in place in the reader's
		// window — the backend's job is to terminate the hop, not to
		// re-process XML the gateway already handled — except for the
		// POST /fault control spec, which is small by construction.
		var body []byte
		control := req.Method == "POST" && clen <= 8<<10 && strings.HasSuffix(path, "fault")
		if control {
			body = make([]byte, clen)
			_, err = io.ReadFull(br, body)
		} else {
			_, err = br.Discard(clen)
		}
		if err != nil {
			s.refuse(c, httpmsg.TruncatedBody(err))
			return
		}
		s.BytesIn.Add(uint64(len(head) + clen))
		if req.Method == "GET" || control {
			// Control plane: /stats, /fault, and /traces bypass fault
			// injection, delay, and the message counters, so observability
			// and fault scripting survive a fault storm — mirroring the
			// gateway's GET fast path.
			var resp []byte
			switch {
			case control:
				s.FaultPosts.Add(1)
				resp = s.handleFault(body)
			case strings.HasSuffix(path, "stats"):
				s.StatsRequests.Add(1)
				resp = httpmsg.JSONResponse(200, s.Stats())
			case strings.HasSuffix(path, "fault"):
				resp = httpmsg.JSONResponse(200, s.FaultState())
			case strings.HasSuffix(path, "traces"):
				if n, err := httpmsg.LastParam(query); err != nil {
					resp = httpmsg.JSONResponse(404, map[string]string{"error": err.Error()})
				} else {
					resp = httpmsg.JSONResponse(200, s.traces.Response(s.cfg.TraceNode, n))
				}
			default:
				resp = httpmsg.JSONResponse(404, map[string]string{"error": "not found"})
			}
			w, err := c.Write(resp)
			s.BytesOut.Add(uint64(w))
			if err != nil {
				return
			}
			continue
		}
		traceVal, _ := req.Get(dtrace.Header)
		t0 := time.Now()
		seq := s.seq.Add(1)
		if s.faultDrop(seq) {
			// Injected fault: drop the connection mid-exchange so the
			// forwarder sees an IO error, not an HTTP status. The serve
			// span is recorded anyway — a dropped hop is exactly the kind
			// of span a cross-node post-mortem needs to see.
			s.Failed.Add(1)
			s.recordServe(traceVal, t0, time.Since(t0), 0, "dropped")
			return
		}
		if delay := s.cfg.Delay + time.Duration(s.extraDelayNS.Load()); delay > 0 {
			time.Sleep(delay)
		}
		status := 200
		if s.errorHit(seq) {
			// Injected error: a served 500, so the forwarder sees an HTTP
			// failure rather than an IO error.
			s.Errored.Add(1)
			status = 500
			wbuf = append(wbuf[:0], httpmsg.JSONResponse(500,
				map[string]any{"backend": s.cfg.Name, "seq": seq, "error": "injected"})...)
		} else {
			bbuf = s.appendAck(bbuf[:0], seq)
			wbuf = httpmsg.AppendResponseHeader(wbuf[:0], &ackRes, len(bbuf))
			wbuf = append(wbuf, bbuf...)
			s.Requests.Add(1)
		}
		w, err := c.Write(wbuf)
		s.BytesOut.Add(uint64(w))
		d := time.Since(t0)
		s.Latency.Observe(d)
		s.recordServe(traceVal, t0, d, status, "")
		if err != nil {
			return
		}
	}
}

// refuse answers a framing error the way the gateway does — its status,
// then Connection: close — and says nothing to plain connection teardown.
func (s *BackendServer) refuse(c net.Conn, err error) {
	var fe *httpmsg.FrameError
	if errors.As(err, &fe) {
		w, _ := c.Write(fe.Response()) // the connection closes either way
		s.BytesOut.Add(uint64(w))
	}
}

// recordServe keeps one server-side span for a data-path request that
// carried an X-AON-Trace header, parented under the gateway's forward
// span (the header's span ID). No header, no work.
func (s *BackendServer) recordServe(traceVal string, start time.Time, d time.Duration, status int, outcome string) {
	if len(traceVal) == 0 {
		return
	}
	tid, pid, ok := dtrace.ParseHeaderValue(traceVal)
	if !ok {
		return
	}
	s.traces.Keep(tid, []dtrace.Span{{
		TraceID:  tid,
		SpanID:   dtrace.NewID(),
		ParentID: pid,
		Node:     s.cfg.TraceNode,
		Name:     "serve",
		StartUS:  start.UnixMicro(),
		DurUS:    d.Microseconds(),
		Outcome:  outcome,
		Status:   status,
	}})
}

// BackendStats is the GET /stats JSON shape — the backend's
// self-reported counter set. What a backend and a gateway both count
// carries the gateway's key (uptime_sec, messages, bytes_in, latency),
// so a cross-node recorder decodes either into gateway.Snapshot; the
// time axis is the backend's own monotonic uptime, never a comparison
// of clocks across machines. Drops and injected errors are in Fault.
type BackendStats struct {
	Name      string  `json:"name"`
	UptimeSec float64 `json:"uptime_sec"`
	// Goroutines is the live goroutine count — the quickest leak/stall
	// tell a campaign post-mortem has from the backend side.
	Goroutines    int     `json:"goroutines"`
	Messages      uint64  `json:"messages"` // messages answered
	StatsRequests uint64  `json:"stats_requests"`
	FaultPosts    uint64  `json:"fault_posts"`
	BytesIn       uint64  `json:"bytes_in"`
	BytesOut      uint64  `json:"bytes_out"`
	RespBytes     int     `json:"resp_bytes"`
	DelayMS       float64 `json:"delay_ms"`
	// LastFaultMS is the backend's wall clock (UnixMilli) when the most
	// recent /fault step was applied; 0 when none ever was. Campaign
	// post-mortems line it up with the fault script's acknowledgment log
	// to tell when a storm step actually landed server-side.
	LastFaultMS int64          `json:"last_fault_unix_ms"`
	Fault       FaultState     `json:"fault"`
	Latency     lhist.Snapshot `json:"latency"`
}

// Stats snapshots the live counters.
func (s *BackendServer) Stats() BackendStats {
	return BackendStats{
		Name:          s.cfg.Name,
		UptimeSec:     time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		LastFaultMS:   s.lastFaultMS.Load(),
		Messages:      s.Requests.Load(),
		StatsRequests: s.StatsRequests.Load(),
		FaultPosts:    s.FaultPosts.Load(),
		BytesIn:       s.BytesIn.Load(),
		BytesOut:      s.BytesOut.Load(),
		RespBytes:     s.cfg.RespBytes,
		DelayMS:       float64(s.cfg.Delay) / float64(time.Millisecond),
		Fault:         s.FaultState(),
		Latency:       s.Latency.Snapshot(),
	}
}

// jsonCT is the shared Content-Type header set for every backend
// response; read-only, so the per-connection Response scratch and the
// control plane share it.
var jsonCT = []httpmsg.Header{{Name: "Content-Type", Value: "application/json"}}

// appendAck appends the padded JSON ack body to dst and returns the
// extended slice — the append-to-dst twin of the old bytes.Buffer
// builder, byte-identical including the pad arithmetic.
func (s *BackendServer) appendAck(dst []byte, seq uint64) []byte {
	dst = append(dst, `{"backend":`...)
	dst = strconv.AppendQuote(dst, s.cfg.Name)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"requests":`...)
	dst = strconv.AppendUint(dst, s.Requests.Load()+1, 10)
	if pad := s.cfg.RespBytes - len(dst) - 9; pad > 0 {
		dst = append(dst, `,"pad":"`...)
		for i := 0; i < pad; i++ {
			dst = append(dst, 'x')
		}
		dst = append(dst, '"')
	}
	return append(dst, '}')
}
