// Package trace defines the abstract micro-operation stream that connects
// instrumented workload kernels (XML parsing, XPath evaluation, schema
// validation, HTTP handling, TCP copy loops) to the microarchitectural
// performance simulator.
//
// Workload code is real, functionally correct Go code. As it runs it emits
// a stream of Ops describing what an equivalent compiled binary would have
// executed on the simulated processor: ALU bursts, loads and stores with
// synthetic addresses that walk the live buffers, and branches carrying the
// kernel's actual taken/not-taken outcome together with a stable synthetic
// program-counter identity. The simulator consumes the stream to drive
// caches, branch predictors, TLBs, the front-side bus and the pipeline
// model, producing on-chip performance-counter values.
package trace

// Kind classifies a micro-operation.
type Kind uint8

const (
	// ALU is a burst of N generic integer/logical operations that hit no
	// memory and contain no control flow.
	ALU Kind = iota
	// Load is a burst of N sequential data-cache reads starting at Addr,
	// one per word (WordBytes apart).
	Load
	// Store is a burst of N sequential data-cache writes starting at Addr.
	Store
	// Branch is a single conditional branch at synthetic PC Addr with
	// outcome Taken.
	Branch
)

// WordBytes is the granularity of a single Load/Store micro-operation.
// Byte-level kernels amortize their accesses to one memory micro-op per
// word, which matches how compiled string/buffer code touches memory.
const WordBytes = 8

// Op is one micro-operation (or a homogeneous burst of them).
type Op struct {
	Addr  uint64 // data address (Load/Store) or synthetic PC (Branch)
	N     uint32 // burst length for ALU/Load/Store; 1 for Branch
	Kind  Kind
	Taken bool // branch outcome (Branch only)
}

// String returns a short human-readable form, used by tests and debugging.
func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	}
	return "invalid"
}

// Emitter receives micro-operations from instrumented kernels.
//
// Emitters must tolerate N == 0 (a no-op). Addresses are synthetic: they
// come from an Arena and never alias real Go memory.
type Emitter interface {
	// ALU records a burst of n plain ALU operations.
	ALU(n int)
	// Load records n sequential word loads starting at addr.
	Load(addr uint64, n int)
	// Store records n sequential word stores starting at addr.
	Store(addr uint64, n int)
	// Branch records one conditional branch at synthetic PC pc with the
	// given actual outcome.
	Branch(pc uint64, taken bool)
}

// Nop is an Emitter that discards everything. It lets the XML, XPath, XSD
// and HTTP packages be used as plain libraries; a kernel that checks
// IsNop once skips even the interface calls.
type Nop struct{}

func (Nop) ALU(int)             {}
func (Nop) Load(uint64, int)    {}
func (Nop) Store(uint64, int)   {}
func (Nop) Branch(uint64, bool) {}

var _ Emitter = Nop{}

// IsNop reports whether em discards everything (nil or Nop). A kernel
// records this once, when it is handed its emitter, and skips its emit
// calls on the strength of it: that is the only difference between the
// live path and the simulator's metered one.
func IsNop(em Emitter) bool {
	_, nop := em.(Nop)
	return em == nil || nop
}

// Buffer is an Emitter that accumulates Ops in memory. The simulation
// engine hands a Buffer to a workload kernel, then feeds the accumulated
// stream through a logical CPU. Buffers are reused via Reset to avoid
// allocation in steady state.
type Buffer struct {
	Ops []Op

	// Stats accumulated on the fly so callers can size work without
	// re-scanning the op slice.
	Instr    uint64 // total micro-ops represented (bursts expanded)
	Loads    uint64
	Stores   uint64
	Branches uint64
}

// NewBuffer returns a Buffer with the given initial op capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{Ops: make([]Op, 0, capacity)}
}

// Reset empties the buffer for reuse, retaining capacity.
func (b *Buffer) Reset() {
	b.Ops = b.Ops[:0]
	b.Instr, b.Loads, b.Stores, b.Branches = 0, 0, 0, 0
}

// ALU implements Emitter. Consecutive ALU bursts coalesce.
func (b *Buffer) ALU(n int) {
	if n <= 0 {
		return
	}
	b.Instr += uint64(n)
	if last := len(b.Ops) - 1; last >= 0 && b.Ops[last].Kind == ALU {
		b.Ops[last].N += uint32(n)
		return
	}
	b.Ops = append(b.Ops, Op{Kind: ALU, N: uint32(n)})
}

// Load implements Emitter.
func (b *Buffer) Load(addr uint64, n int) {
	if n <= 0 {
		return
	}
	b.Instr += uint64(n)
	b.Loads += uint64(n)
	b.Ops = append(b.Ops, Op{Kind: Load, Addr: addr, N: uint32(n)})
}

// Store implements Emitter.
func (b *Buffer) Store(addr uint64, n int) {
	if n <= 0 {
		return
	}
	b.Instr += uint64(n)
	b.Stores += uint64(n)
	b.Ops = append(b.Ops, Op{Kind: Store, Addr: addr, N: uint32(n)})
}

// Branch implements Emitter.
func (b *Buffer) Branch(pc uint64, taken bool) {
	b.Instr++
	b.Branches++
	b.Ops = append(b.Ops, Op{Kind: Branch, Addr: pc, N: 1, Taken: taken})
}

var _ Emitter = (*Buffer)(nil)

// Counting is an Emitter that tallies operation counts without retaining
// the stream. Useful in tests and for sizing workloads.
type Counting struct {
	Instr, Loads, Stores, Branches, Taken uint64
}

func (c *Counting) ALU(n int) {
	if n > 0 {
		c.Instr += uint64(n)
	}
}
func (c *Counting) Load(_ uint64, n int) {
	if n > 0 {
		c.Instr += uint64(n)
		c.Loads += uint64(n)
	}
}
func (c *Counting) Store(_ uint64, n int) {
	if n > 0 {
		c.Instr += uint64(n)
		c.Stores += uint64(n)
	}
}
func (c *Counting) Branch(_ uint64, taken bool) {
	c.Instr++
	c.Branches++
	if taken {
		c.Taken++
	}
}

var _ Emitter = (*Counting)(nil)
