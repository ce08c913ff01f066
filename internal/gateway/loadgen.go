package gateway

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/httpmsg"
	"repro/internal/workload"
)

// Client is a single keep-alive connection speaking the gateway protocol —
// the unit the load generator multiplies.
type Client struct {
	c  net.Conn
	br *bufio.Reader
}

// Dial opens one connection to a gateway.
func Dial(addr string) (*Client, error) { return dialTimeout(addr, 0) }

// dialTimeout is Dial with a bound on connection set-up (0 = none).
func dialTimeout(addr string, d time.Duration) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return &Client{c: c, br: bufio.NewReaderSize(c, 32<<10)}, nil
}

// Close tears the connection down.
func (cl *Client) Close() error { return cl.c.Close() }

// ClientResp is one parsed gateway response.
type ClientResp struct {
	Status  int
	Route   string // X-AON-Route: "order" or "error"
	Outcome string // X-AON-Outcome: forwarded|match|error|valid|parse-error
	Body    []byte
	Bytes   int // wire bytes read
}

// Do writes one raw request and reads the response.
func (cl *Client) Do(raw []byte, timeout time.Duration) (*ClientResp, error) {
	if timeout > 0 {
		cl.c.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := cl.c.Write(raw); err != nil {
		return nil, err
	}
	return cl.recv()
}

var (
	routeName   = []byte(RouteHeader)
	outcomeName = []byte("X-AON-Outcome")
)

// recv reads the next response off the connection. ClientResp and Body
// are fresh allocations because callers keep them across requests; the
// two header values it keeps are interned out of the reader's window.
func (cl *Client) recv() (*ClientResp, error) {
	resp := &ClientResp{}
	h, err := httpmsg.ReadResponseHead(cl.br, func(name, val []byte) {
		switch {
		case bytes.EqualFold(name, routeName):
			resp.Route = internToken(val)
		case bytes.EqualFold(name, outcomeName):
			resp.Outcome = internToken(val)
		}
	})
	if err != nil {
		return nil, err
	}
	resp.Status, resp.Bytes = h.Status, h.Bytes+h.ContentLength
	if h.ContentLength > 0 {
		resp.Body = make([]byte, h.ContentLength)
		if _, err := io.ReadFull(cl.br, resp.Body); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// internToken maps the small closed set of route/outcome header values
// to static strings, so the client's per-response accounting does not
// allocate. Unknown values still get a fresh copy.
func internToken(b []byte) string {
	for _, s := range [...]string{
		"order", "error", "forwarded", "match", "valid", "translated", "parse-error",
	} {
		if string(b) == s { // compiled to an alloc-free comparison
			return s
		}
	}
	return string(b)
}

// LoadConfig parameterizes a sender set's traffic; its width is set by
// Resize.
type LoadConfig struct {
	Addr    string
	UseCase workload.UseCase
	// Size is the approximate POST body size (0 = the paper's 5 KB).
	Size int
	// InvalidEvery makes every Nth message schema-invalid (0 = never) so
	// the SV pipeline exercises both verdicts.
	InvalidEvery int
	// Timeout bounds each request round trip (default 30s).
	Timeout time.Duration
	// Pool is the number of distinct pre-generated messages cycled
	// through (default 64): generation stays off the hot path while
	// caches still see varied content.
	Pool int
	// Seed perturbs the deterministic message generators (0 = the legacy
	// stream), so distinct campaign runs can drive distinct but
	// reproducible traffic.
	Seed uint64
	// TraceEvery originates a distributed trace on every Nth request per
	// sender (0 = never): an X-AON-Trace header is injected so the
	// gateway adopts the client's trace ID, and the client's own
	// request span lands in Report.ClientSpans — the client leg of
	// cross-node trace assembly.
	TraceEvery int
	// TraceNode names this load generator in client spans (default
	// "client").
	TraceNode string
}

// Counts is the load client's outcome accounting, classified by record —
// the only outcome switch outside bench/. Report and campaign.PhaseReport
// embed it, so every aoncamp phase row counts the same things
// under the same JSON keys.
//
// Conservation against the gateway driven (TestCampaignEndToEnd checks it
// per phase): client sent = accepted + refused — Sent equals the gateway's
// delta of Messages + Shed + framing refusals. Metrics.Done counts a
// pipeline parse error under both Messages and ParseErrors, a framing
// refusal under ParseErrors only. A connection that dies unanswered is a
// NetError, on neither side.
type Counts struct {
	Sent        uint64 `json:"sent"` // responses received, any status
	OK          uint64 `json:"ok_200"`
	Shed        uint64 `json:"shed_503"`
	HTTPErrors  uint64 `json:"http_errors"`
	NetErrors   uint64 `json:"net_errors"`
	Forwarded   uint64 `json:"forwarded"`
	Match       uint64 `json:"routed_match"`
	RoutedError uint64 `json:"routed_error"`
	Valid       uint64 `json:"validation_ok"`
	Translated  uint64 `json:"translated"`
	ParseErrors uint64 `json:"parse_errors"`
}

// record classifies one response.
func (c *Counts) record(resp *ClientResp) {
	c.Sent++
	switch resp.Status {
	case 200:
		c.OK++
		switch resp.Outcome {
		case "forwarded":
			c.Forwarded++
		case "match":
			c.Match++
		case "error":
			c.RoutedError++
		case "valid":
			c.Valid++
		case "translated":
			c.Translated++
		}
	case 503:
		c.Shed++
	default:
		c.HTTPErrors++
		if resp.Outcome == "parse-error" || resp.Status == 400 {
			c.ParseErrors++
		}
	}
}

func (c *Counts) add(o *Counts) {
	c.Sent += o.Sent
	c.OK += o.OK
	c.Shed += o.Shed
	c.HTTPErrors += o.HTTPErrors
	c.NetErrors += o.NetErrors
	c.Forwarded += o.Forwarded
	c.Match += o.Match
	c.RoutedError += o.RoutedError
	c.Valid += o.Valid
	c.Translated += o.Translated
	c.ParseErrors += o.ParseErrors
}

// Report is a sender set's accounting at Stop: the outcome counts, the
// latency of the 200 answers, and the client spans a campaign phase row
// and the campaign's trace plane read.
type Report struct {
	Counts
	Latency HistSnapshot
	// ClientSpans holds the client-side request spans of originated
	// traces (TraceEvery > 0), bounded so a long run can't grow the
	// report without limit. The campaign's trace plane joins them with
	// gateway/backend spans by trace ID.
	ClientSpans []dtrace.Span
}

// Client-span bounds: per sender and per merged report.
const (
	maxConnClientSpans   = 1024
	maxReportClientSpans = 4096
)

// requestPool pre-generates the cfg.Pool requests the senders cycle
// through. Indices keep workload.SOAPMessage's deterministic i%2 CBR
// split; InvalidEvery swaps in a schema-broken body at the same size.
func requestPool(cfg LoadConfig) [][]byte {
	pool := make([][]byte, cfg.Pool)
	for i := range pool {
		if cfg.InvalidEvery > 0 && i%cfg.InvalidEvery == cfg.InvalidEvery-1 {
			body := workload.InvalidSOAPMessageSeeded(i, cfg.Size, cfg.Seed)
			pool[i] = RawPost(cfg.UseCase, body)
		} else {
			pool[i] = workload.HTTPRequestSeeded(i, cfg.UseCase, cfg.Size, cfg.Seed)
		}
	}
	return pool
}

// LoopSet is a resizable set of goroutines that each run the same loop
// until it returns or its own stop channel closes: Resize grows the set
// by starting members and shrinks it by closing the newest members'
// channels; Stop shrinks the set to zero and joins every member. Resize
// and Stop belong to one controlling goroutine.
type LoopSet struct {
	loop  func(stop <-chan struct{})
	stops []chan struct{} // one per live member
	wg    sync.WaitGroup
}

// NewLoopSet returns an empty set whose members run loop.
func NewLoopSet(loop func(stop <-chan struct{})) *LoopSet { return &LoopSet{loop: loop} }

// Resize brings the live member count to n.
func (ls *LoopSet) Resize(n int) {
	for len(ls.stops) < n {
		stop := make(chan struct{})
		ls.stops = append(ls.stops, stop)
		ls.wg.Add(1)
		go func() {
			defer ls.wg.Done()
			ls.loop(stop)
		}()
	}
	for len(ls.stops) > max(n, 0) {
		last := len(ls.stops) - 1
		close(ls.stops[last])
		ls.stops = ls.stops[:last]
	}
}

// Stop winds the set down to zero and joins every member.
func (ls *LoopSet) Stop() {
	ls.Resize(0)
	ls.wg.Wait()
}

// Senders is the one load driver: a resizable set of closed-loop
// senders, each owning one keep-alive connection on which it posts the
// next pooled request as soon as the previous reply is in. A sender
// whose connection dies dials again, so the set keeps its width through
// fault storms. The campaign's envelope controller resizes it every tick
// and stops it at the phase boundary. Resize and Stop belong to one
// controlling goroutine.
type Senders struct {
	*LoopSet // Resize; Stop is shadowed to return the Report
	cfg      LoadConfig
	pool     [][]byte

	next atomic.Int64 // requests claimed so far: the pool cursor
	hist Hist

	mu    sync.Mutex
	total Report // senders merge their local accounting in as they exit
}

// NewSenders prepares an empty sender set for cfg; it sends from the
// first Resize until Stop.
func NewSenders(cfg LoadConfig) *Senders {
	if cfg.Size <= 0 {
		cfg.Size = workload.MessageBytes
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Pool <= 0 {
		cfg.Pool = 64
	}
	if cfg.TraceNode == "" {
		cfg.TraceNode = "client"
	}
	s := &Senders{cfg: cfg, pool: requestPool(cfg)}
	s.LoopSet = NewLoopSet(s.run)
	return s
}

// Stop winds the set down to zero, joins every sender and returns the
// merged accounting.
func (s *Senders) Stop() Report {
	s.LoopSet.Stop()
	rep := s.total
	rep.Latency = s.hist.Snapshot()
	return rep
}

// run is one sender: dial, claim the next pooled request, exchange,
// account; on a dead connection dial again.
func (s *Senders) run(stop <-chan struct{}) {
	var (
		local Report
		cl    *Client
		trbuf []byte // trace-injected request scratch, reused
	)
	defer func() {
		if cl != nil {
			cl.Close()
		}
		s.mu.Lock()
		s.total.merge(&local)
		s.mu.Unlock()
	}()
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		if cl == nil {
			c, err := Dial(s.cfg.Addr)
			if err != nil {
				local.NetErrors++
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Millisecond):
				}
				continue
			}
			cl = c
		}
		raw := s.pool[(s.next.Add(1)-1)%int64(len(s.pool))]
		// Every TraceEvery-th request originates a trace: inject the
		// context header (into a reused scratch copy — the shared pool
		// entry is never mutated) so the gateway adopts this ID, and keep
		// the client span while there is room for it.
		var traceID, spanID dtrace.ID
		traced := s.cfg.TraceEvery > 0 && k%s.cfg.TraceEvery == 0
		if traced {
			traceID, spanID = dtrace.NewID(), dtrace.NewID()
			trbuf = dtrace.InjectHeader(trbuf[:0], raw, traceID, spanID)
			raw = trbuf
		}
		t0 := time.Now()
		resp, err := cl.Do(raw, s.cfg.Timeout)
		if traced && len(local.ClientSpans) < maxConnClientSpans {
			sp := dtrace.Span{
				TraceID: traceID,
				SpanID:  spanID,
				Node:    s.cfg.TraceNode,
				Name:    "request",
				StartUS: t0.UnixMicro(),
				DurUS:   time.Since(t0).Microseconds(),
			}
			if err == nil {
				sp.Outcome, sp.Status = resp.Outcome, resp.Status
			} else {
				sp.Outcome = "net-error"
			}
			local.ClientSpans = append(local.ClientSpans, sp)
		}
		if err != nil {
			local.NetErrors++
			cl.Close()
			cl = nil
			continue
		}
		local.record(resp)
		if resp.Status == 200 {
			s.hist.Observe(time.Since(t0))
		}
	}
}

// merge folds one sender's accounting into the set's.
func (dst *Report) merge(src *Report) {
	dst.Counts.add(&src.Counts)
	if room := maxReportClientSpans - len(dst.ClientSpans); room > 0 {
		dst.ClientSpans = append(dst.ClientSpans, src.ClientSpans[:min(room, len(src.ClientSpans))]...)
	}
}

// RawPost wraps an arbitrary body in the standard AON POST — the same
// framing workload.HTTPRequest emits, for callers (the campaign runner,
// invalid-message pools) that bring their own body.
func RawPost(uc workload.UseCase, body []byte) []byte {
	return httpmsg.FormatRequest(&httpmsg.Request{
		Method: "POST",
		Target: fmt.Sprintf("/service/%s", uc),
		Proto:  "HTTP/1.1",
		Headers: []httpmsg.Header{
			{Name: "Host", Value: "aon-gw.example.com"},
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			{Name: "Connection", Value: "keep-alive"},
			{Name: "Content-Length", Value: fmt.Sprint(len(body))},
		},
		Body: body,
	})
}
