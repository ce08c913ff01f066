package aon

import (
	"repro/internal/netsim"
	"repro/internal/workload"
)

// Client is the load generator: it plays the role of the paper's test
// harness machine, injecting HTTP POST requests over the receive link as
// fast as the window allows. It consumes no CPU on the system under test —
// only link bandwidth, DMA and softirq work, as a real external client
// would.
type Client struct {
	S      *Server
	UC     workload.UseCase
	Window int // closed-loop limit on undelivered + queued messages

	pool     [][]byte // pre-built distinct requests, cycled
	next     int
	inflight int
	waiting  bool

	Sent uint64 // messages injected
}

// poolSize is how many distinct request bodies circulate; large enough to
// defeat trivial content memoization, small enough to build quickly.
const poolSize = 48

// NewClient builds a load generator for a server.
func NewClient(s *Server, uc workload.UseCase, window int) *Client {
	if window <= 0 {
		window = 32
	}
	c := &Client{S: s, UC: uc, Window: window}
	c.pool = make([][]byte, poolSize)
	for i := range c.pool {
		c.pool[i] = workload.HTTPRequest(i, uc)
	}
	return c
}

// Start begins injecting at simulation time zero.
func (c *Client) Start() { c.pump(0) }

// pump keeps the window full, re-arming itself on queue drain.
func (c *Client) pump(now float64) {
	for c.inflight+c.S.Accept.Len() < c.Window {
		payload := c.pool[c.next%len(c.pool)]
		c.next++
		c.inflight++
		c.Sent++
		last := c.S.NIC.InjectMessage(now, netsim.Chunk{
			Bytes: len(payload),
			Data:  payload,
		}, func(t float64, m netsim.Chunk) {
			c.inflight--
			c.S.Deliver(t, m)
		})
		// Subsequent messages queue behind this one on the wire.
		now = last
	}
	if !c.waiting {
		c.waiting = true
		c.S.Accept.NotFull.OnSignal(func(t float64) {
			c.waiting = false
			c.pump(t)
		})
	}
}
