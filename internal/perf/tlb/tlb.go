// Package tlb models a data TLB: a small fully-associative translation
// cache with LRU replacement. A miss costs a page-walk latency and adds
// memory traffic charged by the machine model. TLB misses are one of the
// processor events the paper lists as collected via VTune (Section 3.3).
package tlb

// Config sizes the TLB.
type Config struct {
	Entries  int  // number of translations held
	PageBits uint // log2 of the page size (12 => 4 KiB)
	WalkCost int  // page-walk latency in cycles on a miss
}

// Stats counts TLB events.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// TLB is a fully-associative translation lookaside buffer.
type TLB struct {
	cfg   Config
	pages []uint64
	valid []bool
	lru   []uint64
	clock uint64
	last  int // slot of the last hit or fill, checked before the scan
	stats Stats
}

// New builds a TLB.
func New(cfg Config) *TLB {
	return &TLB{
		cfg:   cfg,
		pages: make([]uint64, cfg.Entries),
		valid: make([]bool, cfg.Entries),
		lru:   make([]uint64, cfg.Entries),
	}
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// Access translates addr. It returns the extra latency (0 on a hit, the
// page-walk cost on a miss) and whether the access missed.
func (t *TLB) Access(addr uint64) (penalty int, miss bool) {
	t.stats.Accesses++
	page := addr >> t.cfg.PageBits
	// A page sits in at most one valid slot, so a match in the last slot
	// used is the hit the scan would find; Flush clears it through valid.
	if i := t.last; t.valid[i] && t.pages[i] == page {
		t.clock++
		t.lru[i] = t.clock
		return 0, false
	}
	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i, p := range t.pages {
		if t.valid[i] && p == page {
			t.clock++
			t.lru[i] = t.clock
			t.last = i
			return 0, false
		}
		if t.lru[i] < victimLRU {
			victimLRU = t.lru[i]
			victim = i
		}
	}
	t.stats.Misses++
	t.clock++
	t.pages[victim] = page
	t.valid[victim] = true
	t.lru[victim] = t.clock
	t.last = victim
	return t.cfg.WalkCost, true
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters, preserving translations.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Flush drops all translations (context switch to a new address space).
func (t *TLB) Flush() {
	for i := range t.pages {
		t.valid[i] = false
		t.lru[i] = 0
	}
	t.clock = 0
}
