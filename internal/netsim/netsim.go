// Package netsim is the network substrate of the simulation: a gigabit
// link with serialization delay and frame overhead, socket buffers with
// backpressure, a NIC that DMAs arriving segments into kernel memory and
// raises a softirq, and the instrumented TCP/IP-stack kernels (checksum,
// header processing, buffer copies) whose micro-op streams drive the CPU
// model.
//
// The paper's testbed is a Gigabit Ethernet between the system under test
// and the load generator, plus the loopback device for the CPU-intensive
// netperf mode (Section 3.2.2); this package reproduces both paths.
package netsim

import (
	"repro/internal/perf/machine"
	"repro/internal/perf/trace"
	"repro/internal/sim/sched"
)

const (
	// MSS is the TCP maximum segment payload on a 1500-byte MTU.
	MSS = 1460
	// WireOverhead is the non-payload bytes a full segment occupies on
	// the wire: Ethernet preamble+IFG (20), Ethernet header+FCS (18),
	// IP (20), TCP (20).
	WireOverhead = 78
	// SockBufBytes is the kernel socket buffer size (Linux 2.6 default
	// scale for TCP on these systems).
	SockBufBytes = 64 << 10
)

// Chunk is a unit of data in flight: a TCP segment or an assembled
// application message, carrying both its simulated size/placement and (for
// message chunks) the real payload bytes the XML stack will process.
type Chunk struct {
	Bytes int
	Addr  uint64 // synthetic address of the data in kernel memory
	Data  []byte // real content for application processing (may be nil)
	Meta  any    // workload-specific tag (use case, message id, ...)
}

// SockBuf is a byte-capacity FIFO with wait queues on both ends — the
// simulation's socket buffer / accept queue primitive.
type SockBuf struct {
	Cap      int // byte capacity; 0 means unlimited
	NotEmpty sched.Waiter
	NotFull  sched.Waiter

	bytes int
	q     []Chunk
	head  int
}

// NewSockBuf returns a socket buffer with the given byte capacity.
func NewSockBuf(capBytes int) *SockBuf { return &SockBuf{Cap: capBytes} }

// Bytes returns the bytes currently queued.
func (s *SockBuf) Bytes() int { return s.bytes }

// Len returns the number of queued chunks.
func (s *SockBuf) Len() int { return len(s.q) - s.head }

// HasSpace reports whether n more bytes fit.
func (s *SockBuf) HasSpace(n int) bool { return s.Cap == 0 || s.bytes+n <= s.Cap }

// Push enqueues a chunk at time now and wakes readers. Callers are
// responsible for honoring HasSpace first (TCP flow control).
func (s *SockBuf) Push(c Chunk, now float64) {
	s.q = append(s.q, c)
	s.bytes += c.Bytes
	s.NotEmpty.Signal(now)
}

// Pop dequeues the oldest chunk at time now, waking writers.
func (s *SockBuf) Pop(now float64) (Chunk, bool) {
	c, ok := s.Claim()
	if !ok {
		return Chunk{}, false
	}
	s.Free(c.Bytes, now)
	return c, true
}

// Claim dequeues the oldest chunk without releasing its buffer space; the
// consumer calls Free after it has actually copied the data out. This is
// TCP's real flow-control timing: the sender's window reopens only when
// the receiver has drained the data, which serializes a sender/receiver
// pair sharing a small socket buffer.
func (s *SockBuf) Claim() (Chunk, bool) {
	if s.head >= len(s.q) {
		return Chunk{}, false
	}
	c := s.q[s.head]
	s.head++
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	}
	return c, true
}

// Free releases n bytes of buffer space at time now, waking writers.
func (s *SockBuf) Free(n int, now float64) {
	s.bytes -= n
	s.NotFull.Signal(now)
}

// Link is one direction of a full-duplex wire: bytes serialize at Bps and
// back-to-back sends queue behind each other.
type Link struct {
	M   *machine.Machine
	Bps float64

	freeAt float64
	sent   uint64 // payload bytes carried (for reports)
}

// NewLink builds a link attached to a machine's clock domain.
func NewLink(m *machine.Machine, bps float64) *Link {
	return &Link{M: m, Bps: bps}
}

// Reserve schedules wireBytes onto the link no earlier than cycle now and
// returns the cycle at which the last bit arrives at the far end.
func (l *Link) Reserve(now float64, wireBytes int) float64 {
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	dur := l.M.Cycles(float64(wireBytes) * 8 / l.Bps)
	l.freeAt = start + dur
	return l.freeAt
}

// Backlog returns how far ahead of now the link is already committed.
func (l *Link) Backlog(now float64) float64 {
	if l.freeAt > now {
		return l.freeAt - now
	}
	return 0
}

// AddPayload accounts payload bytes carried (goodput).
func (l *Link) AddPayload(n int) { l.sent += uint64(n) }

// Payload returns the goodput bytes carried so far.
func (l *Link) Payload() uint64 { return l.sent }

// Segments returns the segment payload sizes for an n-byte message.
func Segments(n int) []int {
	var out []int
	for n > 0 {
		s := n
		if s > MSS {
			s = MSS
		}
		out = append(out, s)
		n -= s
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// memWord rounds n bytes up to whole machine words.
func memWords(n int) int { return (n + trace.WordBytes - 1) / trace.WordBytes }
