package cache

import (
	"testing"
	"testing/quick"
)

// testTLB builds a data TLB the way the machine does: one set, a 4 KiB
// line per page and one way per entry.
func testTLB(entries int) *Cache {
	return New(Config{Name: "DTLB", Size: entries << 12, LineSize: 1 << 12, Assoc: entries})
}

// translate is the machine's DTLB step: a read Lookup, and a Shared fill
// on a miss. It reports whether the access missed.
func translate(c *Cache, addr uint64) (miss bool) {
	if st, _ := c.Lookup(addr, false); st != Invalid {
		return false
	}
	c.Fill(addr, Shared)
	return true
}

func TestHitAfterMiss(t *testing.T) {
	tl := testTLB(4)
	if !translate(tl, 0x5000) {
		t.Fatal("cold access hit")
	}
	if translate(tl, 0x5abc) { // same page
		t.Fatal("same-page access missed")
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := testTLB(2)
	translate(tl, 0x1000) // page 1
	translate(tl, 0x2000) // page 2
	translate(tl, 0x1000) // touch page 1; page 2 is LRU
	translate(tl, 0x3000) // evicts page 2
	if translate(tl, 0x1000) {
		t.Fatal("MRU page evicted")
	}
	if !translate(tl, 0x2000) {
		t.Fatal("LRU page survived")
	}
}

func TestFlush(t *testing.T) {
	tl := testTLB(8)
	translate(tl, 0x1000)
	tl.Flush()
	if !translate(tl, 0x1000) {
		t.Fatal("translation survived flush")
	}
}

// Page 0's tag is the zero value of an empty way, so only the state tells
// it apart from an empty way, on the memo path as on the scan.
func TestZeroPageHandled(t *testing.T) {
	tl := testTLB(4)
	if !translate(tl, 0x10) {
		t.Fatal("first access to page 0 did not miss")
	}
	if translate(tl, 0x20) {
		t.Fatal("page 0 not cached")
	}
}

// Property: hit rate for a working set within capacity is perfect after
// the first touch.
func TestCapacityProperty(t *testing.T) {
	check := func(seed uint8) bool {
		tl := testTLB(16)
		// Touch 16 distinct pages twice; second round must all hit.
		misses := 0
		for round := 0; round < 2; round++ {
			for p := 0; p < 16; p++ {
				if translate(tl, uint64(seed)<<20+uint64(p)<<12) {
					misses++
				}
			}
		}
		return misses == 16
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
