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
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
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

// LoadConfig parameterizes one load-generation run.
type LoadConfig struct {
	Addr    string
	UseCase workload.UseCase
	// Conns is the number of concurrent keep-alive connections (default 1).
	Conns int
	// Messages caps the run at a total message count (0 = unlimited,
	// Duration governs).
	Messages int
	// Duration caps the run at wall time (0 = unlimited, Messages
	// governs; both 0 defaults to 1000 messages).
	Duration time.Duration
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
	// connection (0 = never): an X-AON-Trace header is injected so the
	// gateway adopts the client's trace ID, and the client's own
	// request span lands in Report.ClientSpans — the client leg of
	// cross-node trace assembly.
	TraceEvery int
	// TraceNode names this load generator in client spans (default
	// "client").
	TraceNode string
}

// Report is the load generator's final accounting, emitted as JSON by
// cmd/aonload so one command per side yields a complete run record.
type Report struct {
	UseCase     string       `json:"usecase"`
	Conns       int          `json:"conns"`
	SizeBytes   int          `json:"size_bytes"`
	DurationSec float64      `json:"duration_sec"`
	Sent        uint64       `json:"sent"`
	OK          uint64       `json:"ok_200"`
	Shed        uint64       `json:"shed_503"`
	HTTPErrors  uint64       `json:"http_errors"`
	NetErrors   uint64       `json:"net_errors"`
	Forwarded   uint64       `json:"forwarded"`
	Match       uint64       `json:"routed_match"`
	RoutedError uint64       `json:"routed_error"`
	Valid       uint64       `json:"validation_ok"`
	Translated  uint64       `json:"translated"`
	ParseErrors uint64       `json:"parse_errors"`
	BytesOut    uint64       `json:"bytes_out"`
	BytesIn     uint64       `json:"bytes_in"`
	MsgsPerSec  float64      `json:"msgs_per_sec"`
	Mbps        float64      `json:"mbps"` // request payload bits per second
	Latency     HistSnapshot `json:"latency"`
	// ClientSpans holds the client-side request spans of originated
	// traces (TraceEvery > 0), bounded so a long run can't grow the
	// report without limit. aontrace and the fleet coordinator join them
	// with gateway/backend spans by trace ID.
	ClientSpans []dtrace.Span `json:"client_spans,omitempty"`
}

// Client-span bounds: per connection and per merged report.
const (
	maxConnClientSpans   = 1024
	maxReportClientSpans = 4096
)

// RunLoad drives a gateway with Conns concurrent connections posting
// AONBench order documents, open-loop with keep-alive, and reports
// throughput, latency percentiles, and outcome counts.
func RunLoad(cfg LoadConfig) (Report, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Size <= 0 {
		cfg.Size = workload.MessageBytes
	}
	if cfg.Messages <= 0 && cfg.Duration <= 0 {
		cfg.Messages = 1000
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

	// Pre-generate the request pool. Indices keep workload.SOAPMessage's
	// deterministic i%2 CBR split; InvalidEvery swaps in a schema-broken
	// body at the same size.
	pool := make([][]byte, cfg.Pool)
	for i := range pool {
		if cfg.InvalidEvery > 0 && i%cfg.InvalidEvery == cfg.InvalidEvery-1 {
			body := workload.InvalidSOAPMessageSeeded(i, cfg.Size, cfg.Seed)
			pool[i] = RawPost(cfg.UseCase, body)
		} else {
			pool[i] = workload.HTTPRequestSeeded(i, cfg.UseCase, cfg.Size, cfg.Seed)
		}
	}

	var (
		budget   atomic.Int64
		rep      Report
		mu       sync.Mutex
		hist     Hist
		wg       sync.WaitGroup
		deadline time.Time
	)
	budget.Store(int64(cfg.Messages))
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}
	rep.UseCase = cfg.UseCase.String()
	rep.Conns = cfg.Conns
	rep.SizeBytes = cfg.Size

	start := time.Now()
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(connIdx int) {
			defer wg.Done()
			var local Report
			defer func() {
				mu.Lock()
				mergeReport(&rep, &local)
				mu.Unlock()
			}()
			cl, err := Dial(cfg.Addr)
			if err != nil {
				local.NetErrors++
				return
			}
			defer cl.Close()
			var trbuf []byte // trace-injected request scratch, reused
			for k := 0; ; k++ {
				if cfg.Messages > 0 && budget.Add(-1) < 0 {
					return
				}
				if cfg.Duration > 0 && !time.Now().Before(deadline) {
					return
				}
				raw := pool[(connIdx+k*cfg.Conns)%len(pool)]
				// Every TraceEvery-th request originates a trace: inject the
				// context header (into a reused scratch copy — the shared
				// pool entry is never mutated) and keep the client span.
				var traceID, spanID dtrace.ID
				traced := cfg.TraceEvery > 0 && k%cfg.TraceEvery == 0 &&
					len(local.ClientSpans) < maxConnClientSpans
				if traced {
					traceID, spanID = dtrace.NewID(), dtrace.NewID()
					trbuf = dtrace.InjectHeader(trbuf[:0], raw, traceID, spanID)
					raw = trbuf
				}
				t0 := time.Now()
				resp, err := cl.Do(raw, cfg.Timeout)
				if traced {
					sp := dtrace.Span{
						TraceID: traceID,
						SpanID:  spanID,
						Node:    cfg.TraceNode,
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
					return
				}
				local.Sent++
				local.BytesOut += uint64(len(raw))
				local.BytesIn += uint64(resp.Bytes)
				switch {
				case resp.Status == 200:
					local.OK++
					hist.Observe(time.Since(t0))
					switch resp.Outcome {
					case "forwarded":
						local.Forwarded++
					case "match":
						local.Match++
					case "error":
						local.RoutedError++
					case "valid":
						local.Valid++
					case "translated":
						local.Translated++
					}
				case resp.Status == 503:
					local.Shed++
				default:
					local.HTTPErrors++
					if resp.Outcome == "parse-error" || resp.Status == 400 {
						local.ParseErrors++
					}
				}
			}
		}(c)
	}
	wg.Wait()

	rep.DurationSec = time.Since(start).Seconds()
	if rep.DurationSec > 0 {
		rep.MsgsPerSec = float64(rep.OK) / rep.DurationSec
		rep.Mbps = float64(rep.BytesOut) * 8 / 1e6 / rep.DurationSec
	}
	rep.Latency = hist.Snapshot()
	if rep.Sent == 0 && rep.NetErrors > 0 {
		return rep, fmt.Errorf("gateway: no messages delivered to %s", cfg.Addr)
	}
	return rep, nil
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

func mergeReport(dst, src *Report) {
	dst.Sent += src.Sent
	dst.OK += src.OK
	dst.Shed += src.Shed
	dst.HTTPErrors += src.HTTPErrors
	dst.NetErrors += src.NetErrors
	dst.Forwarded += src.Forwarded
	dst.Match += src.Match
	dst.RoutedError += src.RoutedError
	dst.Valid += src.Valid
	dst.Translated += src.Translated
	dst.ParseErrors += src.ParseErrors
	dst.BytesOut += src.BytesOut
	dst.BytesIn += src.BytesIn
	if room := maxReportClientSpans - len(dst.ClientSpans); room > 0 {
		spans := src.ClientSpans
		if len(spans) > room {
			spans = spans[:room]
		}
		dst.ClientSpans = append(dst.ClientSpans, spans...)
	}
}
