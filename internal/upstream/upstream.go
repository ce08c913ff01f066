// Package upstream turns the live gateway into a true forwarding proxy —
// the missing half of the paper's topology. The AON device under test is
// a *proxy*: FR is "HTTP Forward Request" and CBR/SV route messages
// onward to an order or error endpoint (Section 3.2.1), so the network
// I/O half of the I/O↔CPU spectrum (the FR extreme of Figures 5/6) only
// exists end-to-end when the gateway actually forwards to a separate
// backend over the network instead of answering in place.
//
// The subsystem is a router (pipeline outcome → backend) over per-backend
// resilient transports: a bounded keep-alive connection pool with dial
// and per-try deadlines, optional pre-warm floor and max-lifetime
// eviction, bounded retries with jittered exponential backoff on dial/IO
// failure, and circuit-style health marking so a dead backend costs a
// fast 502, not a pileup of dial timeouts. Recovery probing and pool
// pre-warming run on a background goroutine (prober.go), never on the
// request path. Per-backend counters and latency histograms fold into
// the gateway's /stats.
package upstream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
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
	// MaxIdlePerBackend bounds each backend's keep-alive idle set
	// (default 8).
	MaxIdlePerBackend int
	// MinIdlePerBackend is the pre-warm floor: the background prober
	// keeps at least this many idle conns per healthy backend, so the
	// first requests after startup or an idle lull skip the dial
	// (0 = no pre-warming). Clamped to MaxIdlePerBackend.
	MinIdlePerBackend int
	// MaxConnLifetime evicts pooled conns older than this at checkout
	// and checkin (0 = no limit).
	MaxConnLifetime time.Duration
	// DialTimeout bounds connection establishment (default 1s).
	DialTimeout time.Duration
	// TryTimeout is the per-try write+read deadline (default 5s).
	TryTimeout time.Duration
	// Retries is the number of extra tries after the first on dial/IO
	// failure (default 2). Negative means no retries.
	Retries int
	// BackoffBase seeds the jittered exponential backoff between tries
	// (default 5ms; doubled per retry, plus up to one base of jitter).
	BackoffBase time.Duration
	// FailThreshold is the consecutive-failure count that marks a backend
	// down (default 3).
	FailThreshold int
	// ProbeInterval is the background prober's wake-up period: down
	// backends get one connect probe, healthy pools get topped up to
	// MinIdlePerBackend, once per interval (default 1s).
	ProbeInterval time.Duration
}

// Enabled reports whether any backend is configured.
func (c Config) Enabled() bool { return c.Order != "" || c.Error != "" }

func (c Config) withDefaults() Config {
	if c.MaxIdlePerBackend <= 0 {
		c.MaxIdlePerBackend = 8
	}
	if c.MinIdlePerBackend < 0 {
		c.MinIdlePerBackend = 0
	}
	if c.MinIdlePerBackend > c.MaxIdlePerBackend {
		c.MinIdlePerBackend = c.MaxIdlePerBackend
	}
	if c.MaxConnLifetime < 0 {
		c.MaxConnLifetime = 0
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.TryTimeout <= 0 {
		c.TryTimeout = 5 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	return c
}

// Sentinel errors; StatusFor maps them (and raw net errors) to the
// gateway status code.
var (
	// ErrDown fast-fails a round trip while the backend circuit is open.
	ErrDown = errors.New("upstream: backend down")
	// ErrNoBackend means the route has no configured backend; the caller
	// answers in place.
	ErrNoBackend = errors.New("upstream: no backend for route")
)

// StatusFor maps a RoundTrip error to the client-facing status: 504 for
// deadline expiry (the backend exists but did not answer in time), 502
// for everything else (dial refused, IO failure, circuit open).
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
	Reused      bool // the winning try used a pooled connection
	Tries       int  // total tries spent (1 = first try won)
}

// Backend is one resilient upstream transport: address, pool, circuit
// state, counters.
type Backend struct {
	name string
	addr string
	cfg  Config
	pool *pool
	hp   health
	m    metrics
}

// Forwarder routes pipeline outcomes to backends and owns the
// background prober goroutine.
type Forwarder struct {
	cfg      Config
	backends map[string]*Backend

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a forwarder from the configured backends. Callers should
// check cfg.Enabled() first; New on a disabled config returns an error.
func New(cfg Config) (*Forwarder, error) {
	if !cfg.Enabled() {
		return nil, errors.New("upstream: no backends configured")
	}
	cfg = cfg.withDefaults()
	f := &Forwarder{cfg: cfg, backends: map[string]*Backend{}, stop: make(chan struct{})}
	for name, addr := range map[string]string{"order": cfg.Order, "error": cfg.Error} {
		if addr == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return nil, fmt.Errorf("upstream: bad %s backend address %q: %w", name, addr, err)
		}
		f.backends[name] = &Backend{
			name: name,
			addr: addr,
			cfg:  cfg,
			pool: newPool(addr, cfg.MaxIdlePerBackend, cfg.DialTimeout, cfg.MaxConnLifetime),
		}
	}
	f.wg.Add(1)
	go f.maintain()
	return f, nil
}

// Has reports whether a route has a configured backend.
func (f *Forwarder) Has(route string) bool {
	_, ok := f.backends[route]
	return ok
}

// Backend exposes one backend (nil if the route is unconfigured) —
// used by tests and the sweep reporter.
func (f *Forwarder) Backend(route string) *Backend { return f.backends[route] }

// Snapshot reads every backend's counters, keyed by route name.
func (f *Forwarder) Snapshot() map[string]Snapshot {
	out := make(map[string]Snapshot, len(f.backends))
	for name, b := range f.backends {
		out[name] = b.snapshot()
	}
	return out
}

// Close stops the background prober (blocking until its goroutine has
// exited, so tests don't leak it) and tears down every pool's idle
// sockets. Safe to call more than once.
func (f *Forwarder) Close() {
	f.closeOnce.Do(func() {
		close(f.stop)
		f.wg.Wait()
		for _, b := range f.backends {
			b.pool.Close()
		}
	})
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
// forwards without allocating. It retries dial/IO failures with jittered
// backoff, fast-fails while the circuit is open, and never blocks past
// (Retries+1) × (TryTimeout + backoff). On error res's fields are
// meaningless; its Body capacity is kept.
func (f *Forwarder) RoundTripInto(route string, head, body []byte, res *Result) error {
	b, ok := f.backends[route]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoBackend, route)
	}
	return b.roundTrip(head, body, res)
}

func (b *Backend) roundTrip(head, body []byte, res *Result) error {
	var lastErr error
	tries := b.cfg.Retries + 1
	for try := 1; try <= tries; try++ {
		if try > 1 {
			b.m.Retries.Add(1)
			b.backoff(try - 1)
		}
		if !b.hp.healthy() {
			// Circuit open: retrying locally is pointless, the caller sheds
			// with 502 immediately. The background prober owns recovery.
			b.m.FastFails.Add(1)
			return fmt.Errorf("%s %s: %w", b.name, b.addr, ErrDown)
		}
		t0 := time.Now()
		err := b.try(head, body, res)
		if err == nil {
			b.hp.onSuccess()
			b.m.Forwarded.Add(1)
			b.m.Latency.Observe(time.Since(t0))
			res.Backend, res.Addr, res.Tries = b.name, b.addr, try
			return nil
		}
		lastErr = err
		b.m.Failures.Add(1)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			b.m.Timeouts.Add(1)
		}
		if b.hp.onFailure(b.cfg.FailThreshold) {
			b.m.Downs.Add(1)
		}
	}
	return fmt.Errorf("upstream %s %s: %w", b.name, b.addr, lastErr)
}

// backoff sleeps the jittered exponential delay before retry n (1-based).
func (b *Backend) backoff(n int) {
	d := b.cfg.BackoffBase << uint(n-1)
	d += time.Duration(rand.Int64N(int64(b.cfg.BackoffBase) + 1))
	time.Sleep(d)
}

// try performs one attempt on one connection: checkout (pool hit or
// fresh dial), per-try deadline, vectored write through the connection's
// own writev vector, read a full response into res. Any IO error closes the socket — a
// keep-alive conn in unknown state must not return to the pool.
func (b *Backend) try(head, body []byte, res *Result) error {
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
	pc.c.SetDeadline(time.Now().Add(b.cfg.TryTimeout))
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
