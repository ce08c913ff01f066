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
// reader (response parsing state must travel with the socket) and its
// writev vector (kept for the socket's life so a request costs no
// allocation to send).
type pconn struct {
	c      net.Conn
	br     *bufio.Reader
	vec    httpmsg.Writev
	reused bool // true once the conn has served at least one round trip
}

// pool is a bounded LIFO idle set of keep-alive connections to one
// backend address. LIFO keeps the hottest socket hottest (fresh TCP
// window, warm path).
type pool struct {
	addr        string
	dialTimeout time.Duration

	mu     sync.Mutex
	idle   []*pconn
	closed bool

	open atomic.Int64 // dialed minus closed, the open-socket gauge
}

// maxIdle bounds each backend's keep-alive idle set.
const maxIdle = 8

func newPool(addr string, dialTimeout time.Duration) *pool {
	return &pool{addr: addr, dialTimeout: dialTimeout}
}

// get pops an idle connection (pooled=true) or dials a new one
// (pooled=false). A dial error leaves no accounting to undo.
func (p *pool) get() (pc *pconn, pooled bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pc = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, true, nil
	}
	p.mu.Unlock()
	c, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
	if err != nil {
		return nil, false, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p.open.Add(1)
	return &pconn{c: c, br: bufio.NewReaderSize(c, 32<<10)}, false, nil
}

// put returns a healthy connection to the idle set; beyond maxIdle or
// after Close the socket is closed instead.
func (p *pool) put(pc *pconn) {
	pc.reused = true
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdle {
		p.idle = append(p.idle, pc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.discard(pc)
}

// discard closes a connection that must not be reused (IO error, server
// asked for Connection: close, pool full).
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
