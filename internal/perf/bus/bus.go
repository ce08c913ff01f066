// Package bus models the front-side bus shared by all processors in the
// simulated machine. Every transaction — memory reads on L2 misses, line
// write-backs, cache-to-cache transfers, and coherence invalidates —
// occupies the bus for a fixed number of CPU cycles; concurrent requesters
// queue, which is the contention mechanism behind the paper's observation
// that "larger bus traffic results in increased conflicts for bus accesses,
// which mean larger number of stall cycles" (Section 4).
package bus

// TxnKind classifies bus transactions: an address-only Invalidate occupies
// the bus for less time than a transaction with a data phase. The paper's
// BTPI (Figure 5 / Table 3) is counted per logical CPU by the machine.
type TxnKind uint8

const (
	// MemRead is a full-line read from DRAM.
	MemRead TxnKind = iota
	// MemWrite is a full-line write-back to DRAM.
	MemWrite
	// CacheToCache is a dirty-line transfer between processor packages.
	CacheToCache
	// Invalidate is an ownership-upgrade broadcast (no data phase).
	Invalidate
)

func (k TxnKind) String() string {
	switch k {
	case MemRead:
		return "mem-read"
	case MemWrite:
		return "mem-write"
	case CacheToCache:
		return "cache-to-cache"
	case Invalidate:
		return "invalidate"
	}
	return "invalid"
}

// Config sets the bus timing in CPU cycles. The paper's platforms both use
// a 667 MHz FSB but different core clocks, so the machine model derives
// these cycle counts from the clock ratio.
type Config struct {
	// DataTxnCycles is the bus occupancy of a transaction with a data
	// phase (read, write-back, cache-to-cache).
	DataTxnCycles uint64
	// AddrTxnCycles is the occupancy of an address-only transaction
	// (invalidate broadcast).
	AddrTxnCycles uint64
}

// utilWindow is the utilization-sampling window in cycles: long enough to
// smooth bursts, short enough to track load changes.
const utilWindow = 100_000

// maxRho caps the utilization estimate so the queueing formula stays
// finite under saturation.
const maxRho = 0.95

// Bus is the shared front-side bus. Requesters run on logical CPUs whose
// local clocks advance at slightly different rates (the engine serializes
// software threads at step granularity), so the contention model is
// utilization-based rather than an absolute busy-until horizon: each
// transaction pays its occupancy plus an M/D/1-style queueing delay
// derived from the measured utilization of the previous window. This makes
// waits insensitive to cross-CPU clock skew while still blowing up as the
// bus saturates — the stall behaviour the paper attributes to dual-unit
// configurations (Section 4, point 3).
type Bus struct {
	cfg Config

	winStart uint64  // window anchor, in the most-advanced requester clock
	winBusy  uint64  // occupancy accumulated in the current window
	maxNow   uint64  // most advanced requester clock seen
	rho      float64 // utilization of the previous window
}

// New creates a bus with the given timing.
func New(cfg Config) *Bus {
	return &Bus{cfg: cfg}
}

// Transact performs one transaction for a requester whose local clock is
// now (in global CPU cycles). It returns the total latency the requester
// observes: a utilization-derived queueing delay plus the transaction's
// own occupancy.
func (b *Bus) Transact(now uint64, kind TxnKind) (latency uint64) {
	occupancy := b.cfg.DataTxnCycles
	if kind == Invalidate {
		occupancy = b.cfg.AddrTxnCycles
	}

	if now > b.maxNow {
		b.maxNow = now
	}
	if b.maxNow >= b.winStart+utilWindow {
		b.rho = float64(b.winBusy) / float64(b.maxNow-b.winStart)
		if b.rho > maxRho {
			b.rho = maxRho
		}
		b.winStart = b.maxNow
		b.winBusy = 0
	}
	b.winBusy += occupancy

	// M/D/1 mean wait: rho/(2(1-rho)) service times.
	wait := uint64(float64(b.cfg.DataTxnCycles) * b.rho / (2 * (1 - b.rho)))
	return wait + occupancy
}

// Rho returns the utilization estimate from the previous window.
func (b *Bus) Rho() float64 { return b.rho }
