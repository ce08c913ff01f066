// Package upstream turns the live gateway into a true forwarding proxy —
// the missing half of the paper's topology. The AON device under test is
// a *proxy*: FR is "HTTP Forward Request" and CBR/SV route messages
// onward to an order or error endpoint (Section 3.2.1), so the network
// I/O half of the I/O↔CPU spectrum (the FR extreme of Figures 5/6) only
// exists end-to-end when the gateway actually forwards to a separate
// backend over the network instead of answering in place.
//
// The forwarder is a plain HTTP forward, as the paper's FR is: a router
// (pipeline outcome → backend) over one bounded keep-alive connection
// pool per backend, with a dial deadline and a round-trip deadline. Each
// request gets one try: a dial or IO failure answers 502, a deadline
// expiry 504, and a socket that failed never returns to the pool.
// Retries with backoff, a failure circuit, a background prober,
// pre-warming and connection aging were put on trial against scripted
// backend faults and deleted (EXPERIMENTS.md, "Upstream resilience on
// trial"). Per-backend counters and latency histograms fold into the
// gateway's /stats.
//
// BackendServer is the far end of that hop (cmd/aonback). Its own /stats
// publishes what it shares with a gateway under the gateway's keys
// (uptime_sec, messages, bytes_in, latency), so one decode reads both.
package upstream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"repro/internal/httpmsg"
)

// Config parameterizes the forwarder. Zero-valued knobs take the
// defaults documented per field; an entirely zero Config disables
// forwarding (Enabled returns false) and the gateway answers in place,
// exactly as before backends existed.
type Config struct {
	// Order and Error are the TCP addresses of the paper's two endpoints.
	// Messages whose pipeline outcome routes to "order" go to Order,
	// "error"-routed messages to Error. Either may be empty; a route with
	// no backend is answered in place by the gateway.
	Order string
	Error string
	// DialTimeout bounds connection establishment (default 1s).
	DialTimeout time.Duration
	// TryTimeout is the round trip's write+read deadline (default 5s).
	TryTimeout time.Duration
}

// Enabled reports whether any backend is configured.
func (c Config) Enabled() bool { return c.Order != "" || c.Error != "" }

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.TryTimeout <= 0 {
		c.TryTimeout = 5 * time.Second
	}
	return c
}

// errNoBackend means the route has no configured backend; the caller
// answers in place.
var errNoBackend = errors.New("upstream: no backend for route")

// StatusFor maps a RoundTrip error to the client-facing status: 504 for
// deadline expiry (the backend exists but did not answer in time), 502
// for everything else (dial refused, IO failure).
func StatusFor(err error) int {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return 504
	}
	return 502
}

// Result is one successful upstream round trip.
type Result struct {
	Status      int
	ContentType string
	Body        []byte // the response body, in memory the caller owns (see RoundTripInto)
	Backend     string // backend name ("order"/"error")
	Addr        string
	Reused      bool // the round trip used a pooled connection
}

// backend is one upstream transport: address, pool, counters.
type backend struct {
	name    string
	addr    string
	timeout time.Duration // the round trip's write+read deadline
	pool    *pool
	m       metrics
}

// Forwarder routes pipeline outcomes to backends.
type Forwarder struct {
	backends map[string]*backend
}

// New builds a forwarder from the configured backends. Callers should
// check cfg.Enabled() first; New on a disabled config returns an error.
func New(cfg Config) (*Forwarder, error) {
	if !cfg.Enabled() {
		return nil, errors.New("upstream: no backends configured")
	}
	cfg = cfg.withDefaults()
	f := &Forwarder{backends: map[string]*backend{}}
	for name, addr := range map[string]string{"order": cfg.Order, "error": cfg.Error} {
		if addr == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return nil, fmt.Errorf("upstream: bad %s backend address %q: %w", name, addr, err)
		}
		f.backends[name] = &backend{
			name:    name,
			addr:    addr,
			timeout: cfg.TryTimeout,
			pool:    newPool(addr, cfg.DialTimeout),
		}
	}
	return f, nil
}

// Has reports whether a route has a configured backend.
func (f *Forwarder) Has(route string) bool {
	_, ok := f.backends[route]
	return ok
}

// Snapshot reads every backend's counters, keyed by route name.
func (f *Forwarder) Snapshot() map[string]Snapshot {
	out := make(map[string]Snapshot, len(f.backends))
	for name, b := range f.backends {
		out[name] = b.snapshot()
	}
	return out
}

// Close tears down every pool's idle sockets. Safe to call more than
// once.
func (f *Forwarder) Close() {
	for _, b := range f.backends {
		b.pool.Close()
	}
}

// RoundTrip forwards one raw HTTP request to the route's backend and
// returns the parsed response in a fresh Result. It is RoundTripInto for
// callers that keep the Result.
func (f *Forwarder) RoundTrip(route string, raw []byte) (*Result, error) {
	return f.RoundTripBuffers(route, raw, nil)
}

// RoundTripBuffers is RoundTrip with the request header and body in
// separate buffers, answered in a fresh Result.
func (f *Forwarder) RoundTripBuffers(route string, head, body []byte) (*Result, error) {
	res := &Result{}
	if err := f.RoundTripInto(route, head, body, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RoundTripInto is the one round trip: it forwards a request kept as a
// header and a body buffer to the route's backend and fills res with the
// answer. The two segments go out in one vectored write (writev), so the
// body — typically a view into the pooled request frame — is never copied
// into a combined buffer; both must stay valid until the call returns.
// The response body is appended to res.Body[:0], so a caller that hands
// in the same memory each time (the gateway's pooled response buffers)
// forwards without allocating. A dial or IO failure is returned at once,
// so the call never blocks past DialTimeout + TryTimeout. On error res's
// fields are meaningless; its Body capacity is kept.
func (f *Forwarder) RoundTripInto(route string, head, body []byte, res *Result) error {
	b, ok := f.backends[route]
	if !ok {
		return fmt.Errorf("%w: %q", errNoBackend, route)
	}
	t0 := time.Now()
	if err := b.try(head, body, res); err != nil {
		b.m.Failures.Add(1)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			b.m.Timeouts.Add(1)
		}
		return fmt.Errorf("upstream %s %s: %w", b.name, b.addr, err)
	}
	b.m.Forwarded.Add(1)
	b.m.Latency.Observe(time.Since(t0))
	res.Backend, res.Addr = b.name, b.addr
	return nil
}

// try performs the round trip on one connection: checkout (pool hit or
// fresh dial), deadline, vectored write through the connection's own
// writev vector, read a full response into res. Any IO error closes the
// socket — a keep-alive conn in unknown state must not return to the
// pool.
func (b *backend) try(head, body []byte, res *Result) error {
	pc, pooled, err := b.pool.get()
	if err != nil {
		b.m.Dials.Add(1) // the miss happened even though the dial failed
		return err
	}
	if pooled {
		b.m.PoolHits.Add(1)
	} else {
		b.m.Dials.Add(1)
	}
	pc.c.SetDeadline(time.Now().Add(b.timeout))
	if _, err := pc.vec.Write(pc.c, head, body); err != nil {
		b.pool.discard(pc)
		return err
	}
	keepAlive, err := readResult(pc.br, res)
	if err != nil {
		b.pool.discard(pc)
		return err
	}
	pc.c.SetDeadline(time.Time{})
	res.Reused = pc.reused
	if keepAlive {
		b.pool.put(pc)
	} else {
		b.pool.discard(pc)
	}
	return nil
}

var ctypeName = []byte("Content-Type")

// readResult reads one response into res: the head through the shared
// wire framer, the body appended to res.Body[:0] — memory the caller
// owns, which outlives the pooled connection's reader window. keepAlive
// reports whether the socket may be pooled afterwards.
func readResult(br *bufio.Reader, res *Result) (keepAlive bool, err error) {
	res.ContentType = ""
	h, err := httpmsg.ReadResponseHead(br, func(name, val []byte) {
		if bytes.EqualFold(name, ctypeName) {
			res.ContentType = internCType(val)
		}
	})
	if err != nil {
		return false, err
	}
	res.Status = h.Status
	res.Body = slices.Grow(res.Body[:0], h.ContentLength)[:h.ContentLength]
	if _, err := io.ReadFull(br, res.Body); err != nil {
		return false, err
	}
	return h.KeepAlive, nil
}

// internCType returns the static string for the one Content-Type the
// AON backends answer with, so relaying it costs no allocation; any
// other value gets a fresh copy.
func internCType(b []byte) string {
	const json = "application/json"
	if string(b) == json { // compiled to an alloc-free comparison
		return json
	}
	return string(b)
}
