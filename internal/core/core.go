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
// stream that drives the simulated machine.
package aon

import (
	"fmt"

	"repro/internal/dpi"
	"repro/internal/httpmsg"
	"repro/internal/netsim"
	"repro/internal/perf/trace"
	"repro/internal/sim/sched"
	"repro/internal/wcrypto"
	"repro/internal/workload"
	"repro/internal/xmldom"
	"repro/internal/xpath"
	"repro/internal/xsd"
)

// RouteExprSource is the paper's CBR lookup expression.
const RouteExprSource = "//quantity/text()"

// RouteMatchValue is the routing condition: forward to the intended
// endpoint when the expression's string-value equals this.
const RouteMatchValue = "1"

// Config parameterizes a server instance.
type Config struct {
	UseCase workload.UseCase
	// Workers is the number of worker threads; the paper keeps it equal
	// to the number of logical CPUs (0 = auto).
	Workers int
	// Expr overrides the CBR XPath (default RouteExprSource).
	Expr string
	// Schema overrides the SV schema (default the AONBench order schema).
	Schema *xsd.Schema
}

// Stats aggregates server-side outcomes.
type Stats struct {
	Messages     uint64 // messages fully processed and forwarded
	BytesIn      uint64 // HTTP payload bytes received
	BytesOut     uint64 // bytes forwarded
	RoutedMatch  uint64 // CBR: matched the routing condition
	RoutedError  uint64 // CBR/SV/DPI/AUTH: sent to the error endpoint
	ParseErrors  uint64 // malformed HTTP/XML
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

	expr   *xpath.Expr
	schema *xsd.Schema

	// kernMeta is the kernel's socket/fd/epoll metadata region. It is one
	// shared region — there is one kernel — sized at L2 scale: resident on
	// the 2 MB Pentium M L2, contended on the 1 MB Xeon L2. Workers walk
	// it from per-thread offsets.
	kernMeta *trace.Arena

	// matcher is the DPI signature automaton (extension use case); its
	// transition table lives in the simulated process space so scans
	// exercise the caches.
	matcher *dpi.Matcher

	// Per-message kernel cost knobs; see costs.go.
	costs Costs
}

// New builds a server wired to an engine and NIC. The caller spawns the
// threads via SpawnThreads, which binds one worker per logical CPU and the
// softirq thread to CPU0.
func New(e *sched.Engine, nic *netsim.NIC, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = e.CPUs()
	}
	exprSrc := cfg.Expr
	if exprSrc == "" {
		exprSrc = RouteExprSource
	}
	expr, err := xpath.Compile(exprSrc)
	if err != nil {
		return nil, fmt.Errorf("aon: bad routing expression: %w", err)
	}
	schema := cfg.Schema
	if schema == nil {
		schema = workload.OrderSchema()
	}
	matcher := dpi.MustNewMatcher(dpi.DefaultSignatures)
	return &Server{
		E:        e,
		NIC:      nic,
		Cfg:      cfg,
		Accept:   netsim.NewSockBuf(0),
		expr:     expr,
		schema:   schema,
		kernMeta: trace.SubArena(nic.KernSpace, 1<<20),
		matcher:  matcher,
		costs:    DefaultCosts,
	}, nil
}

// init placement for the DPI automaton happens lazily when the first
// worker is built (the engine's address space assigns it a region).

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
	dpiBase uint64
	buf     *trace.Buffer
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

	// 3. Use-case processing.
	routeOK := true
	switch s.Cfg.UseCase {
	case workload.FR:
		// Forwarding only: target rewrite.
		em.Reset()
		httpmsg.RewriteTarget(req, em)
		ctx.ExecBuffer(em)
	case workload.CBR:
		routeOK = w.contentRoute(ctx, req.Body, bodyAddr)
	case workload.SV:
		routeOK = w.validate(ctx, req.Body, bodyAddr)
	case workload.DPI:
		routeOK = w.inspect(ctx, req.Body, bodyAddr)
	case workload.AUTH:
		routeOK = w.authenticate(ctx, req, bodyAddr)
	}
	if routeOK {
		switch s.Cfg.UseCase {
		case workload.SV:
			s.Stats.ValidationOK++
		case workload.CBR:
			s.Stats.RoutedMatch++
		case workload.DPI:
			s.Stats.CleanDPI++
		case workload.AUTH:
			s.Stats.AuthOK++
		}
	} else {
		s.Stats.RoutedError++
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

// contentRoute runs the CBR pipeline: parse the body, evaluate the XPath,
// compare against the routing value.
func (w *worker) contentRoute(ctx *sched.Ctx, body []byte, bodyAddr uint64) bool {
	s := w.s
	w.domArena.Reset()
	em := w.buf
	em.Reset()
	doc, err := xmldom.ParseInstrumented(body, em, bodyAddr, w.domArena)
	if err != nil {
		ctx.ExecBuffer(em)
		s.Stats.ParseErrors++
		return false
	}
	ev := xpath.NewEvaluator(em)
	val, err := ev.EvalString(s.expr, doc)
	ctx.ExecBuffer(em)
	if err != nil {
		s.Stats.ParseErrors++
		return false
	}
	return val == RouteMatchValue
}

// validate runs the SV pipeline: parse the body, validate against the
// schema.
func (w *worker) validate(ctx *sched.Ctx, body []byte, bodyAddr uint64) bool {
	s := w.s
	w.domArena.Reset()
	em := w.buf
	em.Reset()
	doc, err := xmldom.ParseInstrumented(body, em, bodyAddr, w.domArena)
	if err != nil {
		ctx.ExecBuffer(em)
		s.Stats.ParseErrors++
		return false
	}
	v := xsd.NewValidator(s.schema, em)
	ok := v.Valid(doc)
	ctx.ExecBuffer(em)
	return ok
}

// inspect runs the DPI pipeline (extension use case): scan the payload
// against the signature automaton; a clean message routes forward, a hit
// routes to the quarantine endpoint.
func (w *worker) inspect(ctx *sched.Ctx, body []byte, bodyAddr uint64) bool {
	s := w.s
	if w.dpiBase == 0 {
		w.dpiBase = w.domArena.Base() // table aliases the scratch heap region
		s.matcher.SetSimBase(w.dpiBase)
	}
	em := w.buf
	em.Reset()
	matches := s.matcher.ScanInstrumented(body, em, bodyAddr)
	ctx.ExecBuffer(em)
	return len(matches) == 0
}

// authenticate runs the AUTH pipeline (extension use case): HMAC-SHA1 the
// payload with the device key and compare against the X-AON-MAC header.
func (w *worker) authenticate(ctx *sched.Ctx, req *httpmsg.Request, bodyAddr uint64) bool {
	claimed, ok := req.Get("X-AON-MAC")
	if !ok {
		return false
	}
	em := w.buf
	em.Reset()
	mac := wcrypto.HMAC(workload.AuthKey, req.Body, em, bodyAddr)
	ctx.ExecBuffer(em)
	return wcrypto.EqualHex(mac, claimed)
}

// ProcessOne runs the full use-case pipeline on raw request bytes without
// a simulation engine — the plain-library entry point used by examples and
// functional tests. It returns whether the message was routed to the
// intended endpoint.
func ProcessOne(uc workload.UseCase, raw []byte) (bool, error) {
	req, err := httpmsg.ParseRequest(raw)
	if err != nil {
		return false, err
	}
	switch uc {
	case workload.FR:
		return true, nil
	case workload.CBR:
		doc, err := xmldom.Parse(req.Body)
		if err != nil {
			return false, err
		}
		val, err := xpath.NewEvaluator(nil).EvalString(xpath.MustCompile(RouteExprSource), doc)
		if err != nil {
			return false, err
		}
		return val == RouteMatchValue, nil
	case workload.SV:
		doc, err := xmldom.Parse(req.Body)
		if err != nil {
			return false, err
		}
		return xsd.Valid(workload.OrderSchema(), doc), nil
	case workload.DPI:
		return !dpi.MustNewMatcher(dpi.DefaultSignatures).Contains(req.Body), nil
	case workload.AUTH:
		claimed, ok := req.Get("X-AON-MAC")
		if !ok {
			return false, fmt.Errorf("aon: missing X-AON-MAC header")
		}
		return wcrypto.EqualHex(wcrypto.HMAC(workload.AuthKey, req.Body, nil, 0), claimed), nil
	}
	return false, fmt.Errorf("aon: unknown use case %v", uc)
}
