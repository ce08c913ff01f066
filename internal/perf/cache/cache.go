// Package cache implements the set-associative cache model used by the
// performance simulator: configurable size, line size and associativity,
// true-LRU replacement, write-back/write-allocate policy, and a MESI-lite
// (M/S/I) coherence state per line so the machine model can charge
// cache-to-cache transfers and invalidations over the front-side bus.
//
// The caches are passive: they answer lookups and accept fills and probes.
// The coherence protocol itself (who snoops whom, what a transfer costs)
// lives in internal/perf/machine, which mirrors how a real memory subsystem
// separates arrays from the protocol engine.
package cache

import "fmt"

// State is the coherence state of a cached line (MESI).
type State uint8

const (
	// Invalid means the line is not present.
	Invalid State = iota
	// Shared means the line is present, clean, and may also be present in
	// peer caches.
	Shared
	// Exclusive means the line is present, clean, and no peer holds it; a
	// write upgrades it to Modified silently (no bus transaction).
	Exclusive
	// Modified means the line is present, dirty, and exclusively owned.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Config describes one cache array.
type Config struct {
	Name     string // for reports, e.g. "L1D" or "L2"
	Size     int    // total bytes; must be a multiple of LineSize*Assoc
	LineSize int    // bytes per line; power of two
	Assoc    int    // ways per set
	Latency  int    // hit latency in CPU cycles
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a positive power of two", c.Name, c.LineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache %s: associativity %d is not positive", c.Name, c.Assoc)
	}
	if c.Size <= 0 || c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d is not a multiple of line*assoc = %d", c.Name, c.Size, c.LineSize*c.Assoc)
	}
	sets := c.Size / (c.LineSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events. All counts are in line-granularity accesses.
type Stats struct {
	Accesses    uint64 // lookups
	Misses      uint64 // lookups that did not find the line
	Evictions   uint64 // lines displaced by fills
	WriteBacks  uint64 // displaced lines that were Modified
	Invalidates uint64 // lines killed by coherence probes
	Downgrades  uint64 // M->S transitions from coherence probes
}

// Cache is one cache array.
type Cache struct {
	cfg       Config
	sets      []set
	setMask   uint64
	lineShift uint
	stats     Stats
}

type line struct {
	tag   uint64
	state State
	lru   uint32 // higher = more recently used
}

type set struct {
	lines []line
	clock uint32
}

// New builds a cache from cfg. It panics on an invalid configuration,
// which is an init-time programming error, not a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	c := &Cache{
		cfg:     cfg,
		sets:    make([]set, nsets),
		setMask: uint64(nsets - 1),
	}
	for i := range c.sets {
		c.sets[i].lines = make([]line, cfg.Assoc)
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching cache contents,
// mirroring how performance-counter measurement windows work on hardware.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineSize returns the configured line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// Latency returns the configured hit latency in cycles.
func (c *Cache) Latency() int { return c.cfg.Latency }

func (c *Cache) locate(addr uint64) (*set, uint64) {
	lineAddr := addr >> c.lineShift
	s := &c.sets[lineAddr&c.setMask]
	tag := lineAddr >> 0 // full line address as tag keeps probes trivial
	return s, tag
}

// Lookup checks for addr. On a hit it refreshes LRU, applies the write
// upgrade (S->M reported via upgrade=true so the protocol engine can charge
// a bus invalidate; E->M is silent), and returns the pre-upgrade state.
// On a miss it returns Invalid. Lookup never allocates; use Fill for that.
func (c *Cache) Lookup(addr uint64, write bool) (st State, upgrade bool) {
	c.stats.Accesses++
	s, tag := c.locate(addr)
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.state != Invalid && ln.tag == tag {
			s.clock++
			ln.lru = s.clock
			st = ln.state
			if write {
				upgrade = ln.state == Shared
				ln.state = Modified
			}
			return st, upgrade
		}
	}
	c.stats.Misses++
	return Invalid, false
}

// Victim describes a line displaced by a Fill.
type Victim struct {
	Addr      uint64 // line address of the displaced line
	WriteBack bool   // the victim was Modified and must go to memory
	Valid     bool   // a real line was displaced (the set was full)
}

// Fill installs addr with the given state, evicting the LRU line if the
// set is full. The displaced line, if any, is returned so the protocol
// engine can charge a write-back bus transaction.
func (c *Cache) Fill(addr uint64, st State) Victim {
	if st == Invalid {
		return Victim{}
	}
	s, tag := c.locate(addr)
	victimIdx := 0
	var victimLRU uint32 = ^uint32(0)
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.state != Invalid && ln.tag == tag {
			// Already present (a racing fill in the protocol engine);
			// just raise the state if needed and refresh LRU.
			s.clock++
			ln.lru = s.clock
			if st > ln.state {
				ln.state = st
			}
			return Victim{}
		}
		if ln.state == Invalid {
			s.clock++
			*ln = line{tag: tag, state: st, lru: s.clock}
			return Victim{}
		}
		if ln.lru < victimLRU {
			victimLRU = ln.lru
			victimIdx = i
		}
	}
	v := &s.lines[victimIdx]
	victim := Victim{
		Addr:      v.tag << c.lineShift,
		WriteBack: v.state == Modified,
		Valid:     true,
	}
	c.stats.Evictions++
	if victim.WriteBack {
		c.stats.WriteBacks++
	}
	s.clock++
	*v = line{tag: tag, state: st, lru: s.clock}
	return victim
}

// Probe is a coherence lookup from a peer: it reports the line's state
// without disturbing LRU (snoops do not constitute a use).
func (c *Cache) Probe(addr uint64) State {
	s, tag := c.locate(addr)
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.state != Invalid && ln.tag == tag {
			return ln.state
		}
	}
	return Invalid
}

// Invalidate kills the line if present, returning its prior state so the
// protocol engine knows whether a dirty transfer was implied.
func (c *Cache) Invalidate(addr uint64) State {
	s, tag := c.locate(addr)
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.state != Invalid && ln.tag == tag {
			st := ln.state
			ln.state = Invalid
			c.stats.Invalidates++
			return st
		}
	}
	return Invalid
}

// Downgrade moves a Modified or Exclusive line to Shared (a read snoop
// hit), returning true if the line was present and dirty (Modified), which
// implies the snooper must receive the data from this cache.
func (c *Cache) Downgrade(addr uint64) bool {
	s, tag := c.locate(addr)
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.tag == tag && (ln.state == Modified || ln.state == Exclusive) {
			dirty := ln.state == Modified
			ln.state = Shared
			if dirty {
				c.stats.Downgrades++
			}
			return dirty
		}
	}
	return false
}

// Flush invalidates the entire cache (used between measurement runs so
// experiments start cold, like a freshly exec'd process).
func (c *Cache) Flush() {
	for i := range c.sets {
		for j := range c.sets[i].lines {
			c.sets[i].lines[j] = line{}
		}
		c.sets[i].clock = 0
	}
}

// Occupancy returns the number of valid lines, for tests and reports.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.sets {
		for j := range c.sets[i].lines {
			if c.sets[i].lines[j].state != Invalid {
				n++
			}
		}
	}
	return n
}
