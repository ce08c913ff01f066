// Package aon is the paper's primary subject: the XML server application —
// an HTTP proxy with message-level XML functions layered on top, run as
// one worker thread per logical CPU (Section 3.2.1). It supports the three
// use cases the paper characterizes:
//
//   - FR  (Forward Request): parse the HTTP POST, rewrite the target, and
//     forward — the network-I/O-intensive baseline.
//   - CBR (Content-Based Routing): additionally parse the XML body and
//     evaluate the XPath //quantity/text(); route to the order endpoint if
//     it equals "1", to the error endpoint otherwise.
//   - SV  (Schema Validation): validate the body against the pre-stored
//     purchase-order schema and route on the verdict — the CPU-intensive
//     extreme.
//
// Every processing stage is real code (HTTP parsing, DOM construction,
// XPath evaluation, XSD validation) instrumented to emit the micro-op
// stream that drives the simulated machine. The use-case decision is
// internal/verdict's, the same function the live gateway calls; a worker
// passes it a meter.
package aon

import (
	"fmt"

	"repro/internal/httpmsg"
	"repro/internal/netsim"
	"repro/internal/perf/trace"
	"repro/internal/sim/sched"
	"repro/internal/verdict"
	"repro/internal/workload"
)

// Config parameterizes a server instance.
type Config struct {
	UseCase workload.UseCase
	// Workers is the number of worker threads; the paper keeps it equal
	// to the number of logical CPUs (0 = auto).
	Workers int
}

// Stats aggregates server-side outcomes.
type Stats struct {
	Messages     uint64 // messages fully processed and forwarded
	BytesIn      uint64 // HTTP payload bytes received
	BytesOut     uint64 // bytes forwarded
	RoutedMatch  uint64 // CBR: matched the routing condition
	RoutedError  uint64 // sent to the error endpoint (unprocessable included)
	ParseErrors  uint64 // malformed HTTP, or verdict.OutParseError
	ValidationOK uint64 // SV: schema-valid messages
	CleanDPI     uint64 // DPI: messages with no signature hit
	AuthOK       uint64 // AUTH: messages with a valid MAC
}

// Server is one simulated AON device instance.
type Server struct {
	E   *sched.Engine
	NIC *netsim.NIC
	Cfg Config

	Accept *netsim.SockBuf // assembled request queue feeding the workers
	Stats  Stats

	// rules decide every message (internal/verdict); the DPI automaton
	// in them lives in the simulated process space, so scans exercise
	// the caches.
	rules *verdict.Rules

	// kernMeta is the kernel's socket/fd/epoll metadata region. It is one
	// shared region — there is one kernel — sized at L2 scale: resident on
	// the 2 MB Pentium M L2, contended on the 1 MB Xeon L2. Workers walk
	// it from per-thread offsets.
	kernMeta *trace.Arena

	// Per-message kernel cost knobs; see costs.go.
	costs kernelCosts
}

// New builds a server wired to an engine and NIC. The caller spawns the
// threads via SpawnThreads, which binds one worker per logical CPU and the
// softirq thread to CPU0.
func New(e *sched.Engine, nic *netsim.NIC, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = e.CPUs()
	}
	rules, err := verdict.New("", nil)
	if err != nil {
		return nil, fmt.Errorf("aon: %w", err)
	}
	return &Server{
		E:        e,
		NIC:      nic,
		Cfg:      cfg,
		Accept:   netsim.NewSockBuf(0),
		rules:    rules,
		kernMeta: trace.SubArena(nic.KernSpace, 1<<20),
		costs:    defaultCosts,
	}, nil
}

// Deliver is the NIC reassembly callback: a complete request enters the
// accept queue.
func (s *Server) Deliver(now float64, msg netsim.Chunk) {
	s.Accept.Push(msg, now)
}

// SpawnThreads starts the softirq thread on CPU0 and one worker per
// logical CPU.
func (s *Server) SpawnThreads() {
	irq := s.E.Spawn("softirq", 0, sched.KernelProcessID, 0, s.NIC.SoftirqProc())
	irq.Priority = 10
	for w := 0; w < s.Cfg.Workers; w++ {
		cpu := w % s.E.CPUs()
		s.E.Spawn(fmt.Sprintf("worker-%d", w), cpu, 1, 0, s.newWorker(w))
	}
}

// worker holds one worker thread's state: its arenas model the thread's
// slice of the process address space.
type worker struct {
	s *Server
	// userArena rotates receive buffers: each message lands in fresh
	// virtual addresses, like a buffer pool cycling through a large heap.
	userArena *trace.Arena
	// domArena is the recycled per-request DOM/scratch heap — reset every
	// message, giving the CPU-intensive use cases the temporal locality
	// the paper observes ("improved temporal locality of data, which
	// undergo XML content based processing", Section 6).
	domArena *trace.Arena
	// txArena is this worker's per-CPU sk_buff slab for the transmit path.
	txArena *trace.Arena
	metaOff int
	buf     *trace.Buffer
	// meter charges the verdict to buf, the body's address and domArena.
	meter verdict.Meter
	// xj holds the XJ translation, reused across messages.
	xj []byte
	// placedDPI records that this worker has placed the DPI table.
	placedDPI bool
}

func (s *Server) newWorker(idx int) sched.Proc {
	proc := s.E.Space.NewProcess()
	w := &worker{
		s:         s,
		userArena: trace.SubArena(proc, 2<<20),
		domArena:  trace.SubArena(proc, 512<<10),
		txArena:   trace.SubArena(nicKernSpace(s), 256<<10),
		metaOff:   idx * 24683 * 7,
		buf:       trace.NewBuffer(1 << 15),
	}
	w.meter = verdict.Meter{Em: w.buf, Arena: w.domArena}
	return sched.ProcFunc(w.step)
}

// step processes one complete request per scheduling quantum.
func (w *worker) step(ctx *sched.Ctx) sched.Status {
	s := w.s
	msg, ok := s.Accept.Pop(ctx.Now())
	if !ok {
		return sched.StatusWait(&s.Accept.NotEmpty)
	}

	em := w.buf
	// 1. Connection handling (accept/epoll/fd bookkeeping), then recvmsg:
	// syscall overhead plus the kernel-to-user copy.
	em.Reset()
	userAddr := w.userArena.Alloc(uint64(msg.Bytes))
	netsim.EmitSyscall(em, w.metaAddr(), s.costs.Connection)
	netsim.EmitSyscall(em, w.metaAddr(), s.costs.RecvSyscall)
	netsim.EmitCopy(em, userAddr, msg.Addr, msg.Bytes)
	ctx.ExecBuffer(em)

	// 2. HTTP parsing (real + instrumented).
	em.Reset()
	req, err := httpmsg.ParseRequestInstrumented(msg.Data, em, userAddr)
	ctx.ExecBuffer(em)
	if err != nil {
		s.Stats.ParseErrors++
		return sched.StatusYield()
	}
	s.Stats.BytesIn += uint64(msg.Bytes)
	bodyAddr := userAddr + uint64(msg.Bytes-len(req.Body))

	// 3. Use-case processing: the one verdict function, metered.
	if !w.placedDPI {
		// The DPI table aliases this worker's scratch heap. The rules are
		// the server's, so each worker's first message moves it, and
		// every scan after that loads from the latest placement.
		s.rules.PlaceDPITable(w.domArena.Base())
		w.placedDPI = true
	}
	em.Reset()
	w.meter.Body = bodyAddr
	out := s.rules.Decide(s.Cfg.UseCase, req, &w.meter, &w.xj)
	ctx.ExecBuffer(em)
	if !out.Intended() {
		s.Stats.RoutedError++
	}
	switch out {
	case verdict.OutParseError:
		s.Stats.ParseErrors++
	case verdict.OutMatch:
		s.Stats.RoutedMatch++
	case verdict.OutValid:
		s.Stats.ValidationOK++
	case verdict.OutForwarded:
		switch s.Cfg.UseCase {
		case workload.DPI:
			s.Stats.CleanDPI++
		case workload.AUTH:
			s.Stats.AuthOK++
		}
	}

	// 4. Forward to the selected endpoint: sendmsg syscall, then the
	// transmit path (headers, copy, DMA, wire).
	em.Reset()
	netsim.EmitSyscall(em, w.metaAddr(), s.costs.SendSyscall)
	ctx.ExecBuffer(em)
	em.Reset()
	s.NIC.Transmit(ctx, em, w.txArena, userAddr, msg.Bytes)

	s.Stats.Messages++
	s.Stats.BytesOut += uint64(msg.Bytes)
	return sched.StatusYield()
}

// nicKernSpace returns the kernel arena TX slabs are carved from.
func nicKernSpace(s *Server) *trace.Arena { return s.NIC.KernSpace }

// metaAddr walks the shared kernel metadata region with a large stride so
// successive syscalls touch different structures.
func (w *worker) metaAddr() uint64 {
	w.metaOff = (w.metaOff + 24683) % (1<<20 - 192*4096)
	return w.s.kernMeta.Base() + uint64(w.metaOff)&^63
}
