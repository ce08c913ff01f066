package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// oracleLookup is Lookup before the per-set memo: the plain linear scan
// over every way, kept as the reference TestMemoMatchesScan holds Lookup
// to. It leaves the set's last way alone.
func oracleLookup(c *Cache, addr uint64, write bool) (st State, upgrade bool) {
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
	return Invalid, false
}

// sameLines reports whether a and b hold the same lines, LRU stamps and
// clocks in every set.
func sameLines(a, b *Cache) bool {
	for i := range a.sets {
		sa, sb := &a.sets[i], &b.sets[i]
		if sa.clock != sb.clock {
			return false
		}
		for j := range sa.lines {
			if sa.lines[j] != sb.lines[j] {
				return false
			}
		}
	}
	return true
}

// uniqueLines reports whether no set of c holds a valid tag twice.
func uniqueLines(c *Cache) bool {
	for i := range c.sets {
		lines := c.sets[i].lines
		for j := range lines {
			for k := j + 1; k < len(lines); k++ {
				if lines[j].state != Invalid && lines[k].state != Invalid && lines[j].tag == lines[k].tag {
					return false
				}
			}
		}
	}
	return true
}

// Property: over random streams of Lookup, Fill, Probe, Invalidate,
// Downgrade and Flush on 1–4 sets of 1–16 ways, the memoized Lookup and
// the scan oracle agree on every returned state, upgrade and victim, and
// on every line after every operation, and no set ever holds a line
// twice.
func TestMemoMatchesScan(t *testing.T) {
	check := func(shape uint8, seed int64) bool {
		sets, ways := 1<<(shape%3), int(shape>>2)%16+1
		cfg := Config{Name: "t", Size: sets * ways * 64, LineSize: 64, Assoc: ways}
		memo, scan := New(cfg), New(cfg)
		r := rand.New(rand.NewSource(seed))
		// Twice as many lines as the cache holds: hits, misses and
		// evictions all happen.
		nlines := 2 * sets * ways
		for n := 0; n < 400; n++ {
			addr := uint64(r.Intn(nlines))<<6 | uint64(r.Intn(64))
			ok := true
			switch op := r.Intn(64); {
			case op < 32:
				write := op&1 == 1
				ms, mu := memo.Lookup(addr, write)
				ss, su := oracleLookup(scan, addr, write)
				ok = ms == ss && mu == su
			case op < 44:
				st := State(1 + r.Intn(3))
				ok = memo.Fill(addr, st) == scan.Fill(addr, st)
			case op < 48:
				ok = memo.Probe(addr) == scan.Probe(addr)
			case op < 55:
				ok = memo.Invalidate(addr) == scan.Invalidate(addr)
			case op < 63:
				ok = memo.Downgrade(addr) == scan.Downgrade(addr)
			default:
				memo.Flush()
				scan.Flush()
			}
			if !ok || !sameLines(memo, scan) || !uniqueLines(memo) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// linearTLB is the data TLB the machine used before it became a one-set
// Cache: a fully associative page array with a 64-bit LRU clock, scanned
// in full on every access. Free slots sit at LRU 0, so the victim is the
// lowest-index free slot, else the strict-< least recently used one.
type linearTLB struct {
	pages []uint64
	valid []bool
	lru   []uint64
	clock uint64
}

func newLinearTLB(entries int) *linearTLB {
	return &linearTLB{
		pages: make([]uint64, entries),
		valid: make([]bool, entries),
		lru:   make([]uint64, entries),
	}
}

// access translates page, filling it on a miss, and reports whether it
// missed.
func (t *linearTLB) access(page uint64) (miss bool) {
	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i, p := range t.pages {
		if t.valid[i] && p == page {
			t.clock++
			t.lru[i] = t.clock
			return false
		}
		if t.lru[i] < victimLRU {
			victimLRU = t.lru[i]
			victim = i
		}
	}
	t.clock++
	t.pages[victim] = page
	t.valid[victim] = true
	t.lru[victim] = t.clock
	return true
}

// flush drops every translation and resets the clock.
func (t *linearTLB) flush() {
	for i := range t.pages {
		t.valid[i] = false
		t.lru[i] = 0
	}
	t.clock = 0
}

// Property: at the machine's two DTLB sizes, over random page streams
// with interleaved Flushes, the one-set cache and the linear TLB agree on
// every hit and miss and hold the same page, with the same LRU stamp, in
// every slot.
func TestOneSetMatchesLinearTLB(t *testing.T) {
	for _, entries := range []int{64, 128} {
		check := func(seed int64) bool {
			c, o := testTLB(entries), newLinearTLB(entries)
			r := rand.New(rand.NewSource(seed))
			for n := 0; n < 4000; n++ {
				if r.Intn(500) == 0 {
					c.Flush()
					o.flush()
					continue
				}
				// Half the accesses go to a hot set that fits, half to
				// four times the capacity, so both hits and evictions
				// are common.
				page := uint64(r.Intn(entries / 2))
				if r.Intn(2) == 0 {
					page = uint64(r.Intn(4 * entries))
				}
				if translate(c, page<<12|uint64(r.Intn(1<<12))) != o.access(page) {
					return false
				}
			}
			for i, ln := range c.sets[0].lines {
				valid := ln.state != Invalid
				if valid != o.valid[i] || valid && ln.tag != o.pages[i] || uint64(ln.lru) != o.lru[i] {
					return false
				}
			}
			return uint64(c.sets[0].clock) == o.clock
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%d entries: %v", entries, err)
		}
	}
}
