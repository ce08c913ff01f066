package upstream

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpmsg"
)

// pconn is one pooled upstream connection: the socket plus its buffered
// reader (response parsing state must travel with the socket), its
// writev vector (kept for the socket's life so a request costs no
// allocation to send) and its birth time for max-lifetime eviction.
type pconn struct {
	c      net.Conn
	br     *bufio.Reader
	vec    httpmsg.Writev
	born   time.Time
	reused bool // true once the conn has served at least one round trip
}

// pool is a bounded LIFO idle set of keep-alive connections to one
// backend address. LIFO keeps the hottest socket hottest (fresh TCP
// window, warm path), and lets the cold tail age out under low load.
// With maxLifetime set, sockets older than the limit are evicted at
// checkout/checkin instead of being reused — bounding how long a single
// TCP connection (and whatever NAT/LB state rides on it) can live.
type pool struct {
	addr        string
	maxIdle     int
	dialTimeout time.Duration
	maxLifetime time.Duration // 0 = no limit

	mu     sync.Mutex
	idle   []*pconn
	closed bool

	open    atomic.Int64  // dialed minus closed, the open-socket gauge
	expired atomic.Uint64 // conns evicted for exceeding maxLifetime
}

func newPool(addr string, maxIdle int, dialTimeout, maxLifetime time.Duration) *pool {
	return &pool{addr: addr, maxIdle: maxIdle, dialTimeout: dialTimeout, maxLifetime: maxLifetime}
}

// tooOld reports whether a connection has outlived maxLifetime.
func (p *pool) tooOld(pc *pconn) bool {
	return p.maxLifetime > 0 && time.Since(pc.born) > p.maxLifetime
}

// get pops an idle connection (pooled=true) or dials a new one
// (pooled=false), evicting expired idle conns along the way. A dial
// error leaves no accounting to undo.
func (p *pool) get() (pc *pconn, pooled bool, err error) {
	for {
		p.mu.Lock()
		n := len(p.idle)
		if n == 0 {
			p.mu.Unlock()
			break
		}
		pc = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		if p.tooOld(pc) {
			p.expired.Add(1)
			p.discard(pc)
			continue
		}
		return pc, true, nil
	}
	c, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
	if err != nil {
		return nil, false, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p.open.Add(1)
	return &pconn{c: c, br: bufio.NewReaderSize(c, 32<<10), born: time.Now()}, false, nil
}

// put returns a healthy connection to the idle set; beyond maxIdle,
// past maxLifetime, or after Close the socket is closed instead.
func (p *pool) put(pc *pconn) {
	pc.reused = true
	if p.tooOld(pc) {
		p.expired.Add(1)
		p.discard(pc)
		return
	}
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, pc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.discard(pc)
}

// adopt wraps an externally dialed socket (the prober's probe or
// pre-warm dial) and parks it in the idle set. Returns false — closing
// the socket — if the pool is full or closed.
func (p *pool) adopt(c net.Conn) bool {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	pc := &pconn{c: c, br: bufio.NewReaderSize(c, 32<<10), born: time.Now()}
	p.mu.Lock()
	if p.closed || len(p.idle) >= p.maxIdle {
		p.mu.Unlock()
		c.Close()
		return false
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
	p.open.Add(1)
	return true
}

// discard closes a connection that must not be reused (IO error, server
// asked for Connection: close, pool full, lifetime exceeded).
func (p *pool) discard(pc *pconn) {
	pc.c.Close()
	p.open.Add(-1)
}

// idleCount reads the idle gauge.
func (p *pool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// Close empties the idle set and closes those sockets; connections
// currently checked out are closed by their users via put/discard.
func (p *pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, pc := range idle {
		p.discard(pc)
	}
}
